"""Per-rule fixtures for the repro.check rule pack.

Each rule gets a positive case (the violation fires), a negative case
(clean code stays clean) and, where the rule is suppressible in the
real tree, a ``# repro: noqa`` case.
"""

import textwrap

import pytest

from repro.check import Severity, analyze_source, select_rules


def run(code, source, path="src/repro/module.py"):
    """Analyze ``source`` with a single rule; return its findings."""
    result = analyze_source(
        textwrap.dedent(source), path=path, rules=select_rules([code])
    )
    return result.findings


# ----------------------------------------------------------------------
# REP001 — integer-dbu discipline
# ----------------------------------------------------------------------


class TestRep001:
    PATH = "src/repro/geometry/somefile.py"

    def test_float_literal_in_rect(self):
        findings = run("REP001", "r = Rect(0, 0, 10.5, 20)\n", self.PATH)
        assert [f.code for f in findings] == ["REP001"]
        assert findings[0].severity is Severity.ERROR
        assert "float literal" in findings[0].message

    def test_true_division_in_rect(self):
        findings = run("REP001", "r = Rect(0, 0, w / 2, h)\n", self.PATH)
        assert len(findings) == 1
        assert "true division" in findings[0].message

    def test_division_in_coordinate_method(self):
        findings = run("REP001", "r2 = r.expanded(margin / 2)\n", self.PATH)
        assert len(findings) == 1

    def test_floor_division_is_clean(self):
        assert run("REP001", "r = Rect(0, 0, w // 2, h)\n", self.PATH) == []

    def test_int_wrapped_division_is_clean(self):
        assert run("REP001", "r = Rect(0, 0, int(w / 2), h)\n", self.PATH) == []
        assert run("REP001", "r = Rect(0, 0, round(w / 2), h)\n", self.PATH) == []

    def test_out_of_scope_file_is_ignored(self):
        assert run("REP001", "r = Rect(0, 0, 10.5, 20)\n", "src/repro/report.py") == []

    def test_float_outside_coordinate_call_is_clean(self):
        # floats are fine as long as they never reach a coordinate
        assert run("REP001", "ratio = a / b\n", self.PATH) == []

    def test_noqa_suppresses(self):
        findings = run(
            "REP001",
            "r = Rect(0, 0, 10.5, 20)  # repro: noqa[REP001]\n",
            self.PATH,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP002 — DRC numerals outside the deck/config modules
# ----------------------------------------------------------------------


class TestRep002:
    def test_literal_drc_keyword(self):
        findings = run("REP002", "regions = f(layer, min_spacing=10)\n")
        assert [f.code for f in findings] == ["REP002"]
        assert "min_spacing" in findings[0].message

    def test_literal_drcrules_positional(self):
        findings = run("REP002", "rules = DrcRules(10, 10, 100)\n")
        assert len(findings) == 3

    def test_negative_literal_flagged(self):
        findings = run("REP002", "f(min_width=-5)\n")
        assert len(findings) == 1

    def test_value_from_deck_is_clean(self):
        assert run("REP002", "f(min_spacing=rules.min_spacing)\n") == []

    def test_allowed_modules_are_exempt(self):
        src = "rules = DrcRules(10, 10, 100)\n"
        assert run("REP002", src, "src/repro/layout/drc.py") == []
        assert run("REP002", src, "src/repro/core/config.py") == []
        assert run("REP002", src, "src/repro/bench/suite.py") == []

    def test_unrelated_keyword_is_clean(self):
        assert run("REP002", "f(window_margin=0)\n") == []


# ----------------------------------------------------------------------
# REP003 — mutable defaults
# ----------------------------------------------------------------------


class TestRep003:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "{'a': 1}"]
    )
    def test_mutable_default_fires(self, default):
        findings = run("REP003", f"def f(a={default}):\n    pass\n")
        assert [f.code for f in findings] == ["REP003"]

    def test_keyword_only_default(self):
        findings = run("REP003", "def f(*, a=[]):\n    pass\n")
        assert len(findings) == 1

    def test_immutable_defaults_clean(self):
        assert run("REP003", "def f(a=(), b=None, c=1, d='x'):\n    pass\n") == []

    def test_noqa_suppresses(self):
        findings = run(
            "REP003", "def f(a=[]):  # repro: noqa[REP003]\n    pass\n"
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP004 — exception hygiene
# ----------------------------------------------------------------------

_TRY_BARE = """
try:
    solve()
except:
    pass
"""

_TRY_SWALLOW = """
try:
    solve()
except ValueError:
    pass
"""

_TRY_HANDLED = """
try:
    solve()
except ValueError:
    fallback()
"""


class TestRep004:
    def test_bare_except_is_error_anywhere(self):
        findings = run("REP004", _TRY_BARE, "src/repro/report.py")
        assert [f.code for f in findings] == ["REP004"]
        assert findings[0].severity is Severity.ERROR

    def test_swallowed_exception_in_solver_path(self):
        findings = run("REP004", _TRY_SWALLOW, "src/repro/netflow/ssp.py")
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING

    def test_swallowed_exception_outside_solver_path_is_clean(self):
        assert run("REP004", _TRY_SWALLOW, "src/repro/report.py") == []

    def test_handled_exception_is_clean(self):
        assert run("REP004", _TRY_HANDLED, "src/repro/core/engine.py") == []


# ----------------------------------------------------------------------
# REP005 — float equality
# ----------------------------------------------------------------------


class TestRep005:
    def test_float_literal_comparison(self):
        findings = run("REP005", "hot = density == 0.5\n")
        assert [f.code for f in findings] == ["REP005"]

    def test_division_result_comparison(self):
        findings = run("REP005", "if area / window == target:\n    pass\n")
        assert len(findings) == 1

    def test_not_equal_fires(self):
        assert len(run("REP005", "x = score != 1.0\n")) == 1

    def test_integer_comparison_clean(self):
        assert run("REP005", "if count == 0:\n    pass\n") == []

    def test_ordering_comparison_clean(self):
        assert run("REP005", "if density > 0.5:\n    pass\n") == []

    def test_floor_division_clean(self):
        assert run("REP005", "if a // b == c:\n    pass\n") == []

    def test_noqa_suppresses(self):
        findings = run(
            "REP005", "if value == 0.0:  # repro: noqa[REP005]\n    pass\n"
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP006 — __all__ consistency
# ----------------------------------------------------------------------


class TestRep006:
    def test_missing_all_with_public_defs(self):
        findings = run("REP006", "def public():\n    pass\n")
        assert [f.code for f in findings] == ["REP006"]
        assert "no __all__" in findings[0].message

    def test_private_only_module_needs_no_all(self):
        assert run("REP006", "def _helper():\n    pass\n") == []

    def test_unexported_public_def(self):
        src = "__all__ = ['a']\ndef a():\n    pass\ndef b():\n    pass\n"
        findings = run("REP006", src)
        assert len(findings) == 1
        assert "'b'" in findings[0].message

    def test_phantom_export(self):
        findings = run("REP006", "__all__ = ['ghost']\n")
        assert len(findings) == 1
        assert "'ghost'" in findings[0].message

    def test_consistent_module_clean(self):
        src = (
            "__all__ = ['a', 'CONST']\n"
            "CONST = 3\n"
            "def a():\n    pass\n"
            "def _private():\n    pass\n"
        )
        assert run("REP006", src) == []

    def test_reexport_via_import_is_defined(self):
        src = "from x import name\n__all__ = ['name']\n"
        assert run("REP006", src) == []

    def test_main_module_exempt(self):
        assert run("REP006", "def main():\n    pass\n", "src/repro/__main__.py") == []


# ----------------------------------------------------------------------
# REP007 — one clock: raw timers/tracemalloc outside repro/obs
# ----------------------------------------------------------------------


class TestRep007:
    def test_perf_counter_call(self):
        findings = run("REP007", "import time\nt0 = time.perf_counter()\n")
        assert [f.code for f in findings] == ["REP007"]
        assert findings[0].severity is Severity.ERROR
        assert "perf_counter" in findings[0].message

    def test_perf_counter_ns_call(self):
        findings = run("REP007", "t0 = time.perf_counter_ns()\n")
        assert len(findings) == 1

    def test_perf_counter_from_import(self):
        findings = run("REP007", "from time import perf_counter\n")
        assert [f.code for f in findings] == ["REP007"]

    def test_tracemalloc_import(self):
        findings = run("REP007", "import tracemalloc\ntracemalloc.start()\n")
        assert [f.code for f in findings] == ["REP007"]
        assert "tracemalloc" in findings[0].message

    def test_tracemalloc_from_import(self):
        findings = run("REP007", "from tracemalloc import start\n")
        assert len(findings) == 1

    def test_obs_spans_are_clean(self):
        src = (
            "from repro import obs\n"
            "with obs.span('stage') as sp:\n"
            "    work()\n"
            "seconds = sp.seconds\n"
        )
        assert run("REP007", src) == []

    def test_other_time_functions_clean(self):
        assert run("REP007", "import time\ntime.sleep(0.1)\n") == []
        assert run("REP007", "from time import monotonic\n") == []

    def test_obs_package_exempt(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert run("REP007", src, "src/repro/obs/spans.py") == []

    def test_benchmarks_not_exempt(self):
        # benchmark drivers must clock through obs.measure, never raw
        # perf_counter — the CI gate runs REP007 over benchmarks/.
        src = "import time\nt0 = time.perf_counter()\n"
        findings = run("REP007", src, "benchmarks/bench_scaling.py")
        assert [f.code for f in findings] == ["REP007"]

    def test_bench_tracker_not_exempt(self):
        src = "from time import perf_counter\n"
        findings = run("REP007", src, "src/repro/bench/tracker.py")
        assert [f.code for f in findings] == ["REP007"]

    def test_obs_measure_in_benchmarks_clean(self):
        src = (
            "from repro import obs\n"
            "with obs.measure(sample_rss=False) as m:\n"
            "    work()\n"
            "secs = m.seconds\n"
        )
        assert run("REP007", src, "benchmarks/bench_scaling.py") == []

    def test_noqa_suppresses(self):
        src = "t0 = time.perf_counter()  # repro: noqa[REP007]\n"
        assert run("REP007", src) == []


# ----------------------------------------------------------------------
# cross-cutting behaviour
# ----------------------------------------------------------------------


class TestSuppressionAndErrors:
    def test_blanket_noqa(self):
        result = analyze_source(
            "def f(a=[]):  # repro: noqa\n    pass\n", path="src/repro/m.py"
        )
        assert result.findings == []
        assert result.suppressed >= 1

    def test_noqa_in_string_is_not_a_directive(self):
        result = analyze_source(
            's = "# repro: noqa"\ndef f(a=[]):\n    pass\n',
            path="src/repro/m.py",
            rules=select_rules(["REP003"]),
        )
        assert [f.code for f in result.findings] == ["REP003"]

    def test_syntax_error_reported_as_rep000(self):
        result = analyze_source("def broken(:\n", path="src/repro/m.py")
        assert [f.code for f in result.findings] == ["REP000"]
        assert result.findings[0].severity is Severity.ERROR

    def test_unknown_rule_code_raises(self):
        with pytest.raises(KeyError):
            select_rules(["REP999"])

    def test_ignore_filters_rules(self):
        rules = select_rules(ignore=["REP006"])
        assert all(r.code != "REP006" for r in rules)


# ----------------------------------------------------------------------
# REP008 — raw executors outside repro/parallel
# ----------------------------------------------------------------------


class TestRep008:
    def test_multiprocessing_import(self):
        findings = run("REP008", "import multiprocessing\n")
        assert [f.code for f in findings] == ["REP008"]
        assert findings[0].severity is Severity.ERROR

    def test_multiprocessing_submodule_import(self):
        findings = run("REP008", "import multiprocessing.pool\n")
        assert len(findings) == 1

    def test_concurrent_futures_from_import(self):
        findings = run(
            "REP008", "from concurrent.futures import ProcessPoolExecutor\n"
        )
        assert [f.code for f in findings] == ["REP008"]

    def test_os_fork_call(self):
        findings = run("REP008", "import os\npid = os.fork()\n")
        assert [f.code for f in findings] == ["REP008"]
        assert "os.fork" in findings[0].message

    def test_os_fork_from_import(self):
        findings = run("REP008", "from os import fork\n")
        assert len(findings) == 1

    def test_repro_parallel_package_exempt(self):
        src = "from concurrent.futures import ProcessPoolExecutor\n"
        assert run("REP008", src, "src/repro/parallel/executor.py") == []

    def test_run_sharded_usage_is_clean(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "out = run_sharded(fn, shared, shards, workers=2)\n"
        )
        assert run("REP008", src) == []

    def test_other_os_functions_clean(self):
        assert run("REP008", "import os\nn = os.cpu_count()\n") == []

    def test_noqa_suppresses(self):
        assert run("REP008", "import multiprocessing  # repro: noqa[REP008]\n") == []


# ----------------------------------------------------------------------
# REP009 — shard-worker purity
# ----------------------------------------------------------------------

# the PR-5 bug shape: a worker accumulating into the shared state it
# was shipped, so results depend on which shards ran on which worker
_PR5_SHAPE = """\
from repro.parallel import run_sharded

def _generate_shard(shared, tasks):
    out = []
    for task in tasks:
        shared.cache.append(task.key)
        out.append((task.key, work(task)))
    return out

def generate(shared, tasks, workers):
    return run_sharded(_generate_shard, shared, [tasks], workers=workers)
"""


class TestRep009:
    def test_pr5_shared_mutation_shape(self):
        findings = run("REP009", _PR5_SHAPE)
        assert [f.code for f in findings] == ["REP009"]
        assert findings[0].severity is Severity.ERROR
        assert "shared" in findings[0].message
        assert "append" in findings[0].message

    def test_subscript_write_to_shared(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def worker(shared, shard):\n"
            "    shared['hits'] = len(shard)\n"
            "    return shard\n"
            "def main(shared):\n"
            "    run_sharded(worker, shared, [[1]], workers=2)\n"
        )
        findings = run("REP009", src)
        assert [f.code for f in findings] == ["REP009"]
        assert "write to shared state" in findings[0].message

    def test_attribute_write_to_shared(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def worker(state, shard):\n"
            "    state.total += len(shard)\n"
            "    return shard\n"
            "run_sharded(worker, make_state(), [[1]], workers=2)\n"
        )
        assert [f.code for f in run("REP009", src)] == ["REP009"]

    def test_global_rebinding_in_worker(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def worker(shared, shard):\n"
            "    global _COUNT\n"
            "    _COUNT = len(shard)\n"
            "    return shard\n"
            "run_sharded(worker, None, [[1]], workers=2)\n"
        )
        findings = run("REP009", src)
        assert len(findings) == 1
        assert "global" in findings[0].message

    def test_setattr_on_shared(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def worker(shared, shard):\n"
            "    setattr(shared, 'n', len(shard))\n"
            "    return shard\n"
            "run_sharded(worker, None, [[1]], workers=2)\n"
        )
        assert len(run("REP009", src)) == 1

    def test_mutation_through_alias(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def worker(shared, shard):\n"
            "    cache = shared.cache\n"
            "    cache.update({1: 2})\n"
            "    return shard\n"
            "run_sharded(worker, None, [[1]], workers=2)\n"
        )
        assert len(run("REP009", src)) == 1

    def test_mutation_in_reachable_callee(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def _record(state, key):\n"
            "    state.seen.add(key)\n"
            "def worker(shared, shard):\n"
            "    for item in shard:\n"
            "        _record(shared, item)\n"
            "    return shard\n"
            "run_sharded(worker, None, [[1]], workers=2)\n"
        )
        findings = run("REP009", src)
        assert len(findings) == 1
        assert "_record" in findings[0].message

    def test_pure_worker_is_clean(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def worker(shared, shard):\n"
            "    out = []\n"
            "    for item in shard:\n"
            "        out.append(shared.scale * item)\n"
            "    return out\n"
            "run_sharded(worker, None, [[1]], workers=2)\n"
        )
        assert run("REP009", src) == []

    def test_copy_of_shared_may_be_mutated(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def worker(shared, shard):\n"
            "    mine = list(shared.items)\n"
            "    mine.append(1)\n"
            "    return mine\n"
            "run_sharded(worker, None, [[1]], workers=2)\n"
        )
        assert run("REP009", src) == []

    def test_unsharded_mutation_not_flagged(self):
        # mutation is fine in functions never dispatched as workers
        src = "def accumulate(state, item):\n    state.seen.append(item)\n"
        assert run("REP009", src) == []


# ----------------------------------------------------------------------
# REP010 — picklability of workers and shared state
# ----------------------------------------------------------------------


class TestRep010:
    def test_lambda_worker(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "run_sharded(lambda s, shard: shard, None, [[1]], workers=2)\n"
        )
        findings = run("REP010", src)
        assert [f.code for f in findings] == ["REP010"]
        assert "lambda" in findings[0].message

    def test_closure_worker(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def main(scale):\n"
            "    def worker(shared, shard):\n"
            "        return [scale * x for x in shard]\n"
            "    return run_sharded(worker, None, [[1]], workers=2)\n"
        )
        findings = run("REP010", src)
        assert len(findings) == 1
        assert "closure" in findings[0].message
        assert "main" in findings[0].message

    def test_partial_worker(self):
        src = (
            "import functools\n"
            "from repro.parallel import run_sharded\n"
            "run_sharded(functools.partial(f, 2), None, [[1]], workers=2)\n"
        )
        findings = run("REP010", src)
        assert len(findings) == 1

    def test_locally_defined_shared_class(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def main():\n"
            "    class State:\n"
            "        pass\n"
            "    shared = State()\n"
            "    return run_sharded(worker, shared, [[1]], workers=2)\n"
        )
        findings = run("REP010", src)
        assert len(findings) == 1
        assert "State" in findings[0].message

    def test_shared_dataclass_with_file_handle_field(self):
        src = (
            "from dataclasses import dataclass\n"
            "from typing import TextIO\n"
            "from repro.parallel import run_sharded\n"
            "@dataclass\n"
            "class Shared:\n"
            "    log: TextIO\n"
            "def main(shared):\n"
            "    shared = Shared(log=open('x'))\n"
            "    run_sharded(worker, shared, [[1]], workers=2)\n"
        )
        findings = run("REP010", src)
        assert findings
        assert "TextIO" in findings[0].message

    def test_shared_dataclass_with_lock_default(self):
        src = (
            "from dataclasses import dataclass\n"
            "from threading import Lock\n"
            "from repro.parallel import run_sharded\n"
            "@dataclass\n"
            "class Shared:\n"
            "    lock: object = Lock()\n"
            "run_sharded(worker, Shared(), [[1]], workers=2)\n"
        )
        assert run("REP010", src)

    def test_module_level_worker_and_plain_dataclass_clean(self):
        src = (
            "from dataclasses import dataclass\n"
            "from typing import Tuple\n"
            "from repro.parallel import run_sharded\n"
            "@dataclass(frozen=True)\n"
            "class Shared:\n"
            "    scale: int\n"
            "    numbers: Tuple[int, ...] = ()\n"
            "def worker(shared, shard):\n"
            "    return [shared.scale * x for x in shard]\n"
            "def main():\n"
            "    shared = Shared(scale=2)\n"
            "    return run_sharded(worker, shared, [[1]], workers=2)\n"
        )
        assert run("REP010", src) == []


# ----------------------------------------------------------------------
# REP011 — unordered iteration / unseeded randomness
# ----------------------------------------------------------------------


class TestRep011:
    PATH = "src/repro/density/analysis.py"

    def test_for_over_set_literal(self):
        findings = run("REP011", "for x in {1, 2, 3}:\n    emit(x)\n", self.PATH)
        assert [f.code for f in findings] == ["REP011"]
        assert findings[0].severity is Severity.WARNING

    def test_for_over_set_variable(self):
        src = "keys = set(pairs)\nfor k in keys:\n    emit(k)\n"
        assert len(run("REP011", src, self.PATH)) == 1

    def test_comprehension_over_set(self):
        src = "out = [f(x) for x in {1, 2}]\n"
        assert len(run("REP011", src, self.PATH)) == 1

    def test_sum_over_set(self):
        src = "total = sum({a, b})\n"
        assert len(run("REP011", src, self.PATH)) == 1

    def test_set_union_iteration(self):
        src = "a = set(x)\nb = set(y)\nfor k in a | b:\n    emit(k)\n"
        assert len(run("REP011", src, self.PATH)) == 1

    def test_sorted_set_is_clean(self):
        src = "keys = set(pairs)\nfor k in sorted(keys):\n    emit(k)\n"
        assert run("REP011", src, self.PATH) == []

    def test_membership_and_len_clean(self):
        src = "seen = set(keys)\nif k in seen:\n    n = len(seen)\n"
        assert run("REP011", src, self.PATH) == []

    def test_unseeded_random_call(self):
        src = "import random\nx = random.random()\n"
        findings = run("REP011", src, self.PATH)
        assert len(findings) == 1
        assert "random.random" in findings[0].message

    def test_unseeded_shuffle_from_import(self):
        src = "from random import shuffle\nshuffle(items)\n"
        assert len(run("REP011", src, self.PATH)) == 1

    def test_seeded_rng_instance_clean(self):
        src = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert run("REP011", src, self.PATH) == []

    def test_out_of_scope_file_ignored(self):
        src = "for x in {1, 2}:\n    emit(x)\n"
        assert run("REP011", src, "src/repro/report.py") == []

    def test_noqa_suppresses(self):
        src = "for x in {1, 2}:  # repro: noqa[REP011]\n    emit(x)\n"
        assert run("REP011", src, self.PATH) == []


# ----------------------------------------------------------------------
# REP012 — float merge order across shard boundaries
# ----------------------------------------------------------------------


class TestRep012:
    def test_sum_over_results_variable(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def main(shared, shards):\n"
            "    results = run_sharded(worker, shared, shards, workers=2)\n"
            "    return sum(results)\n"
        )
        findings = run("REP012", src)
        assert [f.code for f in findings] == ["REP012"]
        assert findings[0].severity is Severity.WARNING
        assert "fsum" in findings[0].message

    def test_sum_over_direct_call(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "total = sum(run_sharded(worker, None, shards, workers=2))\n"
        )
        assert len(run("REP012", src)) == 1

    def test_sum_over_genexp_of_results(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def main(shards):\n"
            "    results = run_sharded(worker, None, shards, workers=2)\n"
            "    return sum(r.area for r in results)\n"
        )
        assert len(run("REP012", src)) == 1

    def test_augassign_fold_over_results(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def main(shards):\n"
            "    total = 0.0\n"
            "    results = run_sharded(worker, None, shards, workers=2)\n"
            "    for r in results:\n"
            "        total += r\n"
            "    return total\n"
        )
        findings = run("REP012", src)
        assert len(findings) == 1
        assert "+=" in findings[0].message

    def test_math_fsum_is_clean(self):
        src = (
            "import math\n"
            "from repro.parallel import run_sharded\n"
            "def main(shards):\n"
            "    results = run_sharded(worker, None, shards, workers=2)\n"
            "    return math.fsum(results)\n"
        )
        assert run("REP012", src) == []

    def test_order_preserving_reassembly_is_clean(self):
        src = (
            "from repro.parallel import run_sharded\n"
            "def main(shards):\n"
            "    results = run_sharded(worker, None, shards, workers=2)\n"
            "    flat = [x for shard in results for x in shard]\n"
            "    return flat\n"
        )
        assert run("REP012", src) == []

    def test_sum_of_unrelated_list_is_clean(self):
        src = "def main(values):\n    return sum(values)\n"
        assert run("REP012", src) == []

    def test_module_without_run_sharded_skipped(self):
        assert run("REP012", "total = sum(results)\n") == []


# ----------------------------------------------------------------------
# REP013 — thread/queue ownership
# ----------------------------------------------------------------------


class TestRep013:
    def test_raw_thread_in_compute_code(self):
        src = (
            "import threading\n"
            "t = threading.Thread(target=work)\n"
        )
        findings = run("REP013", src, "src/repro/core/engine.py")
        assert [f.code for f in findings] == ["REP013"]
        assert findings[0].severity is Severity.ERROR
        assert "threading.Thread" in findings[0].message

    def test_thread_from_import(self):
        src = (
            "from threading import Thread\n"
            "t = Thread(target=work)\n"
        )
        findings = run("REP013", src, "src/repro/density/analysis.py")
        assert len(findings) == 1

    def test_raw_queue(self):
        src = "import queue\nq = queue.Queue(maxsize=8)\n"
        findings = run("REP013", src, "src/repro/core/engine.py")
        assert [f.code for f in findings] == ["REP013"]

    def test_service_package_exempt(self):
        src = (
            "import threading\n"
            "t = threading.Thread(target=work, daemon=True)\n"
        )
        assert run("REP013", src, "src/repro/service/jobs.py") == []

    def test_parallel_package_exempt(self):
        src = "import queue\nq = queue.Queue()\n"
        assert run("REP013", src, "src/repro/parallel/executor.py") == []

    def test_obs_package_exempt(self):
        src = (
            "import threading\n"
            "t = threading.Thread(target=sample, daemon=True)\n"
        )
        assert run("REP013", src, "src/repro/obs/rss.py") == []

    def test_locks_are_clean_anywhere(self):
        src = (
            "import threading\n"
            "lock = threading.Lock()\n"
            "cond = threading.Condition(lock)\n"
            "evt = threading.Event()\n"
        )
        assert run("REP013", src, "src/repro/core/engine.py") == []

    def test_unrelated_queue_name_clean(self):
        src = "def queue_work(q):\n    q.append(1)\n"
        assert run("REP013", src, "src/repro/core/engine.py") == []

    def test_noqa_suppresses(self):
        src = (
            "import threading\n"
            "t = threading.Thread(target=work)  # repro: noqa[REP013]\n"
        )
        assert run("REP013", src, "src/repro/core/engine.py") == []


# ----------------------------------------------------------------------
# REP014 — one diagnostics channel
# ----------------------------------------------------------------------


class TestRep014:
    def test_print_in_library_code(self):
        src = 'print("sizing pass done")\n'
        findings = run("REP014", src, "src/repro/core/sizing.py")
        assert [f.code for f in findings] == ["REP014"]
        assert findings[0].severity is Severity.ERROR
        assert "repro.obs.events" in findings[0].message

    def test_logging_basicconfig(self):
        src = (
            "import logging\n"
            "logging.basicConfig(level=logging.DEBUG)\n"
        )
        findings = run("REP014", src, "src/repro/density/analysis.py")
        assert [f.code for f in findings] == ["REP014"]
        assert "basicConfig" in findings[0].message

    def test_basicconfig_from_import(self):
        src = (
            "from logging import basicConfig\n"
            "basicConfig()\n"
        )
        findings = run("REP014", src, "src/repro/core/engine.py")
        # the import line and the aliased call both fire
        assert [f.code for f in findings] == ["REP014", "REP014"]

    def test_signal_setitimer(self):
        src = (
            "import signal\n"
            "signal.setitimer(signal.ITIMER_PROF, 0.01)\n"
        )
        findings = run("REP014", src, "src/repro/core/engine.py")
        assert [f.code for f in findings] == ["REP014"]
        assert "SamplingProfiler" in findings[0].message

    def test_obs_package_exempt(self):
        src = 'print("scrape me")\n'
        assert run("REP014", src, "src/repro/obs/expose.py") == []

    def test_cli_modules_exempt(self):
        src = 'print("summary table")\n'
        assert run("REP014", src, "src/repro/cli.py") == []
        assert run("REP014", src, "src/repro/service/cli.py") == []
        assert run("REP014", src, "src/repro/__main__.py") == []

    def test_check_reporting_exempt(self):
        src = 'print("findings: 3")\n'
        assert run("REP014", src, "src/repro/check/runner.py") == []

    def test_logger_calls_clean(self):
        src = (
            "import logging\n"
            'log = logging.getLogger("repro.core")\n'
            'log.warning("slow shard")\n'
        )
        assert run("REP014", src, "src/repro/core/engine.py") == []

    def test_events_emit_clean(self):
        src = (
            "from repro.obs import events\n"
            'events.emit("shard_done", level="info", shard=3)\n'
        )
        assert run("REP014", src, "src/repro/core/engine.py") == []

    def test_shadowed_print_clean(self):
        # a local function named print is someone's own affair
        src = (
            "def render(print):\n"
            "    print(1)\n"
        )
        findings = run("REP014", src, "src/repro/core/engine.py")
        # flagged anyway: the rule is syntactic on the name, and
        # shadowing builtins trips other linters first
        assert [f.code for f in findings] == ["REP014"]

    def test_noqa_suppresses(self):
        src = 'print("debug")  # repro: noqa[REP014]\n'
        assert run("REP014", src, "src/repro/core/engine.py") == []


# ----------------------------------------------------------------------
# REP015 — per-window Python loops in the density layer
# ----------------------------------------------------------------------


class TestRep015:
    def test_nested_axis_sweep_accumulating(self):
        src = (
            "def metric(density, grid):\n"
            "    total = 0.0\n"
            "    for i in range(grid.cols):\n"
            "        for j in range(grid.rows):\n"
            "            total += float(density[i, j])\n"
            "    return total\n"
        )
        findings = run("REP015", src, "src/repro/density/metrics.py")
        assert [f.code for f in findings] == ["REP015"]
        assert findings[0].severity is Severity.WARNING
        assert "raster" in findings[0].message

    def test_nested_sweep_appending(self):
        src = (
            "def worst(density, grid):\n"
            "    out = []\n"
            "    for i in range(grid.cols):\n"
            "        for j in range(grid.rows):\n"
            "            out.append(density[i, j])\n"
            "    return out\n"
        )
        findings = run("REP015", src, "src/repro/density/scoring.py")
        assert [f.code for f in findings] == ["REP015"]

    def test_nested_sweep_subscript_store(self):
        src = (
            "def areas(grid, out):\n"
            "    for i in range(grid.cols):\n"
            "        for j in range(grid.rows):\n"
            "            out[i, j] = grid.window_area(i, j)\n"
        )
        findings = run("REP015", src, "src/repro/density/metrics.py")
        assert [f.code for f in findings] == ["REP015"]

    def test_nested_sweep_over_unpacked_shape(self):
        src = (
            "def worst(density):\n"
            "    out = []\n"
            "    cols, rows = density.shape\n"
            "    for i in range(cols):\n"
            "        for j in range(rows):\n"
            "            out.append(density[i, j])\n"
            "    return out\n"
        )
        findings = run("REP015", src, "src/repro/density/scoring.py")
        assert [f.code for f in findings] == ["REP015"]
        assert findings[0].line == 4

    def test_shape_names_stay_in_their_function(self):
        # ``cols, rows`` unpacked in another function are plain names here
        src = (
            "def shape(density):\n"
            "    cols, rows = density.shape\n"
            "    return cols * rows\n"
            "\n"
            "def pairs(cols, rows):\n"
            "    out = []\n"
            "    for i in range(cols):\n"
            "        for j in range(rows):\n"
            "            out.append((i, j))\n"
            "    return out\n"
        )
        assert run("REP015", src, "src/repro/density/scoring.py") == []

    def test_len_sweep_clean(self):
        src = (
            "def cross(xs, ys):\n"
            "    out = []\n"
            "    for i in range(len(xs)):\n"
            "        for j in range(len(ys)):\n"
            "            out.append(xs[i] * ys[j])\n"
            "    return out\n"
        )
        assert run("REP015", src, "src/repro/density/metrics.py") == []

    def test_window_protocol_iteration_using_rect(self):
        src = (
            "def scan(index, grid):\n"
            "    out = []\n"
            "    for i, j, win in grid:\n"
            "        out.append(index.query(win))\n"
            "    return out\n"
        )
        findings = run("REP015", src, "src/repro/density/multiwindow.py")
        assert [f.code for f in findings] == ["REP015"]
        assert "window-by-window" in findings[0].message

    def test_windows_method_iteration(self):
        src = (
            "def scan(grid):\n"
            "    for win in grid.windows():\n"
            "        yield win.area\n"
        )
        findings = run("REP015", src, "src/repro/density/metrics.py")
        assert [f.code for f in findings] == ["REP015"]

    def test_key_enumeration_clean(self):
        # Enumerating (i, j) keys without touching the window rect is
        # bookkeeping, not per-window geometry.
        src = (
            "def keys(grid):\n"
            "    out = []\n"
            "    for i, j, _ in grid:\n"
            "        out.append((i, j))\n"
            "    return out\n"
        )
        assert run("REP015", src, "src/repro/density/raster.py") == []

    def test_strip_loop_clean(self):
        # One loop per window-*column* feeding an array slice is the
        # raster kernel's own shape.
        src = (
            "def area_map(grid, ras, y_cuts, out):\n"
            "    for i in range(grid.cols):\n"
            "        out[i, :] = ras.covered_window_areas([i], y_cuts)[0]\n"
        )
        assert run("REP015", src, "src/repro/density/raster.py") == []

    def test_analysis_module_not_exempt(self):
        src = (
            "def analyze(index, grid):\n"
            "    out = []\n"
            "    for i, j, win in grid:\n"
            "        out.append(index.query(win))\n"
            "    return out\n"
        )
        findings = run("REP015", src, "src/repro/density/analysis.py")
        assert [f.code for f in findings] == ["REP015"]

    def test_outside_density_exempt(self):
        src = (
            "def scan(index, grid):\n"
            "    out = []\n"
            "    for i, j, win in grid:\n"
            "        out.append(index.query(win))\n"
            "    return out\n"
        )
        assert run("REP015", src, "src/repro/core/candidates.py") == []

    def test_noqa_waives(self):
        src = (
            "def worst(density, grid):\n"
            "    out = []\n"
            "    for i in range(grid.cols):  # repro: noqa[REP015]\n"
            "        for j in range(grid.rows):\n"
            "            out.append(density[i, j])\n"
            "    return out\n"
        )
        from repro.check.rules import select_rules
        from repro.check.runner import analyze_source

        result = analyze_source(
            src, "src/repro/density/scoring.py", rules=select_rules(["REP015"])
        )
        assert result.findings == []
        assert result.suppressed == 1
        assert result.suppressed_by_code == {"REP015": 1}
