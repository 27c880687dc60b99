"""Unit tests for the warm worker pool and the bounded intern table.

The :class:`~repro.batch.pool.WarmPool` carries three contracts the
batch engine, the CRPD fan-out and the fuzz runner all lean on:

* *seed dedup* — a context value is pickled and spooled exactly once,
  however often it is seeded, and ``ship_bytes`` counts those bytes;
* *warm reuse* — workers keep unpickled contexts (and their
  :func:`~repro.batch.pool.derived` state) across tasks, counted by
  ``reuse``;
* *taxonomy-faithful fallback* — pool infrastructure failures degrade to
  an in-process serial run with identical results, while analysis errors
  (:class:`~repro.errors.ReproError`) propagate unchanged.

The intern-table bound (``repro.cache.kernels``) is the satellite that
makes warm workers safe: a worker living through thousands of cases must
not grow its block-set table without limit.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.batch.pool import WarmPool, derived, in_worker
from repro.cache.kernels import (
    DEFAULT_INTERN_LIMIT,
    intern_blocks,
    intern_limit,
    intern_table_size,
    reset_intern_table,
    set_intern_limit,
)
from repro.errors import ReproError
from repro.obs import observed


def _double(context, item):
    return (context or 0) * 0 + item * 2


def _with_context(context, item):
    return (context["base"], item)


def _report_in_worker(context, item):
    return in_worker()


def _raise_repro(context, item):
    raise ReproError(f"analysis failed on {item}")


def _derived_id(context, item):
    value = derived(context, "probe", lambda: object())
    return id(value)


class TestWarmPoolBasics:
    def test_serial_map_preserves_order_and_counts(self):
        with WarmPool(jobs=1) as pool:
            assert pool.map(_double, [3, 1, 2]) == [6, 2, 4]
            assert pool.map(_double, []) == []
            assert pool.tasks == 3

    def test_parallel_map_preserves_order(self):
        with WarmPool(jobs=2) as pool:
            token = pool.seed({"base": 7})
            results = pool.map(_with_context, list(range(8)), context=token)
        assert results == [(7, i) for i in range(8)]

    def test_executor_start_method_is_fork(self):
        """Stated, not inherited: Python 3.14 makes ``forkserver`` the
        Linux default, which would re-import every worker's modules."""
        with WarmPool(jobs=2) as pool:
            executor = pool._ensure_executor()
            assert executor._mp_context.get_start_method() == "fork"
            token = pool.seed({"base": 5})
            assert pool.map(_with_context, [1], context=token) == [(5, 1)]

    def test_closed_pool_refuses_work(self):
        pool = WarmPool(jobs=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(_double, [1])
        with pytest.raises(RuntimeError):
            pool.seed("ctx")

    def test_unknown_context_token_is_an_error(self):
        with WarmPool(jobs=1) as pool:
            with pytest.raises(KeyError):
                pool.map(_double, [1], context="not-a-token")


class TestSeedDedup:
    def test_equal_contexts_ship_once(self):
        with observed() as (_, metrics):
            with WarmPool(jobs=1) as pool:
                token1 = pool.seed({"layouts": list(range(100))})
                shipped = pool.ship_bytes
                assert shipped > 0
                token2 = pool.seed({"layouts": list(range(100))})
                assert token1 == token2
                assert pool.ship_bytes == shipped  # no second write
                token3 = pool.seed({"layouts": list(range(101))})
                assert token3 != token1
                assert pool.ship_bytes > shipped
        counters = metrics.to_dict()["counters"]
        assert counters["batch.pool.contexts"] == 2
        assert counters["batch.pool.ship_bytes"] == pool.ship_bytes


class TestWarmReuse:
    def test_workers_serve_repeat_contexts_warm(self):
        items = list(range(10))
        with WarmPool(jobs=2) as pool:
            token = pool.seed({"base": 1})
            pool.map(_with_context, items, context=token)
            first_round_reuse = pool.reuse
            # Each worker unpickles the context at most once, so at least
            # items - jobs tasks were served warm already in round one.
            assert first_round_reuse >= len(items) - pool.jobs
            # A second map against the same token is entirely warm.
            pool.map(_with_context, items, context=token)
            assert pool.reuse >= first_round_reuse + len(items)

    def test_in_worker_flag_matches_execution_path(self):
        assert in_worker() is False
        with WarmPool(jobs=2) as pool:
            token = pool.seed("ctx")
            assert all(pool.map(_report_in_worker, [1, 2], context=token))
        with WarmPool(jobs=1) as pool:
            token = pool.seed("ctx")
            assert pool.map(_report_in_worker, [1], context=token) == [False]

    def test_derived_state_is_memoized_per_context(self):
        context_a, context_b = {"k": "a"}, {"k": "b"}
        first = derived(context_a, "probe", lambda: object())
        assert derived(context_a, "probe", lambda: object()) is first
        assert derived(context_b, "probe", lambda: object()) is not first


class TestFallbackAndErrors:
    def test_unpicklable_item_falls_back_to_identical_serial_run(self):
        items = [1, 2, (lambda: 3)]  # the lambda cannot cross the fork

        def fn(context, item):
            return item() * 2 if callable(item) else item * 2

        # fn itself is a closure (also unpicklable) — either payload
        # triggers the PicklingError that degrades the pool.
        with observed() as (_, metrics):
            with WarmPool(jobs=2) as pool:
                assert pool.map(fn, items) == [2, 4, 6]
                assert pool.fallbacks == 1
                # The pool stays serial: no second fallback, still correct.
                assert pool.map(fn, [5]) == [10]
                assert pool.fallbacks == 1
        assert metrics.to_dict()["counters"]["batch.pool.fallbacks"] == 1

    def test_fallback_does_not_wedge_interpreter_exit(self):
        # Regression: _fall_back used to shut the broken executor down
        # with cancel_futures=True, racing terminate_broken()'s
        # set_exception() on the same futures (3.11 has no
        # cancelled-check there).  The manager thread then died before
        # reaping workers and the interpreter hung forever at exit
        # joining it.  A subprocess with a timeout is the only faithful
        # probe for "exit completes".
        script = textwrap.dedent(
            """
            from repro.batch.pool import WarmPool

            pool = WarmPool(jobs=2)
            items = [1, 2, (lambda: 3)]

            def fn(context, item):
                return item() * 2 if callable(item) else item * 2

            assert pool.map(fn, items) == [2, 4, 6]
            assert pool.fallbacks == 1
            print("fell back cleanly")
            # No pool.close(): exit must still complete promptly.
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fell back cleanly" in proc.stdout

    def test_analysis_errors_propagate_without_fallback(self):
        with WarmPool(jobs=2) as pool:
            with pytest.raises(ReproError, match="analysis failed"):
                pool.map(_raise_repro, [1, 2])
            assert pool.fallbacks == 0
        with WarmPool(jobs=1) as pool:
            with pytest.raises(ReproError):
                pool.map(_raise_repro, [1])
            assert pool.fallbacks == 0


class TestInternBound:
    @pytest.fixture(autouse=True)
    def _restore_limit(self):
        yield
        set_intern_limit(DEFAULT_INTERN_LIMIT)
        reset_intern_table()

    def test_table_never_exceeds_the_limit_over_1000_cases(self):
        """A warm worker living through 1000 unrelated cases keeps its
        intern table bounded — the growth that motivated per-case resets
        before the bound existed."""
        set_intern_limit(64)
        reset_intern_table()
        with observed() as (_, metrics):
            for case in range(1000):
                blocks = frozenset({case, case + 1_000_000})
                canonical = intern_blocks(blocks)
                assert canonical == blocks
                assert intern_table_size() <= intern_limit()
        snapshot = metrics.to_dict()
        # 1000 distinct sets through a 64-slot table: many forced clears,
        # and the gauge tracks the live size.
        assert snapshot["counters"]["kernels.intern.resets"] >= 1000 // 64 - 1
        assert snapshot["gauges"]["kernels.intern_size"] == intern_table_size()
        assert intern_table_size() <= 64

    def test_interning_still_deduplicates_within_a_generation(self):
        set_intern_limit(64)
        reset_intern_table()
        first = intern_blocks(frozenset({1, 2, 3}))
        assert intern_blocks(frozenset({1, 2, 3})) is first

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            set_intern_limit(0)
