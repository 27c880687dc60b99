"""Per-layer wrappers for the traced pass.

Each wrapper times calls into one layer's public function from outside
the program: the duration of a call, minus the time its nested wrapped
calls cover, is the layer's *self time*.  Nesting is tracked per thread,
so the serve daemon's worker threads attribute correctly.

Callers often bind a function at import time (``from repro.vm.machine
import run_isolated``), so patching only the defining module would miss
them.  Methods are patched on their class; module-level functions are
replaced in *every* loaded ``repro`` module whose global names the
original object.  ``install`` returns a handle whose ``uninstall``
restores every original binding.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter

#: Per-layer metric names in the order ``BENCHMARK.json`` lists them.
LAYER_METRICS = (
    "vm.calls", "vm.steps", "vm.self_s",
    "cache.replay_calls", "cache.replay_accesses", "cache.replay_self_s",
    "cache.sim_misses",
    "analysis.flow.calls", "analysis.flow.self_s",
    "program.paths.calls", "program.paths.profiles", "program.paths.self_s",
    "program.build.calls", "program.build.self_s",
    "analysis.crpd.pairs", "analysis.crpd.self_s",
    "wcrt.fixpoints", "wcrt.iterations", "wcrt.warm_started", "wcrt.self_s",
    "analysis.store.gets", "analysis.store.hit_ratio",
    "analysis.store.get_self_s", "analysis.store.put_self_s",
    "analysis.store.bytes",
    "batch.pool.seeds", "batch.pool.ship_bytes", "batch.pool.reuse",
    "batch.pool.self_s", "batch.point.self_s",
    "analysis.whatif.edits", "analysis.whatif.reuse_ratio",
    "analysis.whatif.self_s",
    "optimize.evals", "optimize.accept_ratio", "optimize.search_gain_pct",
    "optimize.self_s",
    "serve.queue_wait_p50_ms", "serve.job_p50_ms", "serve.protocol_self_s",
    "serve.http_overhead_p50_ms",
    "trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead_pct",
)


class Recorder:
    """Thread-safe counters plus per-layer self time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counts: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)

    def reset(self) -> None:
        with self._lock:
            self.counts.clear()
            self.seconds.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn, probe=None):
        """Wrap *fn*: count calls of *layer*, accumulate its self time.

        *probe(args, kwargs)* runs before the call and returns a function
        of the call's result giving the layer's work counters as a dict.
        """
        recorder = self
        calls = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            finish = probe(args, kwargs) if probe is not None else None
            stack = recorder._stack()
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with recorder._lock:
                    recorder.counts[calls] += 1
                    recorder.seconds[layer] += elapsed - children
            if finish is not None:
                work = finish(result)
                with recorder._lock:
                    for name, value in work.items():
                        recorder.counts[name] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            out = {name: value for name, value in self.counts.items()}
            out.update({f"{layer}.self_s": value for layer, value in self.seconds.items()})
        return out


# ----------------------------------------------------------------------
# Probes: work counters read around a call (see ``Recorder.timed``)
# ----------------------------------------------------------------------
def _vm_probe(args, kwargs):
    machine = args[0]
    steps, misses = machine.steps, machine.cache.stats.misses
    return lambda _: {
        "vm.steps": machine.steps - steps,
        "cache.sim_misses": machine.cache.stats.misses - misses,
    }


def _replay_probe(args, kwargs):
    trace, cache = args[0], args[1]
    misses = cache.stats.misses
    return lambda _: {
        "cache.replay_accesses": len(trace),
        "cache.sim_misses": cache.stats.misses - misses,
    }


def _paths_probe(args, kwargs):
    return lambda profiles: {"program.paths.profiles": len(profiles)}


def _wcrt_probe(args, kwargs):
    warm = int(kwargs.get("initial_window") is not None)
    return lambda result: {
        "wcrt.iterations": result.iteration_count,
        "wcrt.warm_started": warm,
    }


def _store_get_probe(args, kwargs):
    store = args[0]
    kind = kwargs.get("kind", args[2] if len(args) > 2 else "task")
    moved = store.bytes_read + store.bytes_written

    def finish(value):
        # From the return value, not the store's counters: the serve
        # daemon's threads share one store.
        hit = value is not None
        return {
            "analysis.store.hits": int(hit),
            f"analysis.store.{'hits' if hit else 'misses'}.{kind}": 1,
            "analysis.store.bytes": store.bytes_read + store.bytes_written - moved,
        }

    return finish


def _store_put_probe(args, kwargs):
    store = args[0]
    moved = store.bytes_read + store.bytes_written
    return lambda _: {"analysis.store.bytes": store.bytes_read + store.bytes_written - moved}


def _pool_seed_probe(args, kwargs):
    pool = args[0]
    shipped = pool.ship_bytes
    return lambda _: {"batch.pool.ship_bytes": pool.ship_bytes - shipped}


def _pool_map_probe(args, kwargs):
    pool = args[0]
    reuse = pool.reuse
    return lambda _: {"batch.pool.reuse": pool.reuse - reuse}


def _timed_pool_map(rec, raw_map):
    """``WarmPool.map`` whose serially-run task function is itself timed
    as ``batch.point``, so the pool's self time is its own overhead and
    not the per-point analysis it runs in-process."""
    timed_map = rec.timed("batch.pool.map", raw_map, _pool_map_probe)

    def map(self, fn, items, context=None):
        if self.jobs <= 1:
            fn = rec.timed("batch.point", fn)
        return timed_map(self, fn, items, context)

    return map


def _whatif_probe(args, kwargs):
    def finish(result):
        reused = sum(result.reused.values())
        return {
            "analysis.whatif.reused": reused,
            "analysis.whatif.nodes": reused + sum(result.invalidated.values()),
        }

    return finish


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
class Installation:
    """Patched bindings; ``uninstall`` puts every original back."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list = []

    def method(self, cls, name: str, layer: str, probe=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.recorder.timed(layer, raw.__func__, probe))
        else:
            wrapped = self.recorder.timed(layer, raw, probe)
        setattr(cls, name, wrapped)
        self._undo.append((cls, name, raw))

    def replace(self, cls, name: str, wrapped) -> None:
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapped)

    def function(self, module, name: str, layer: str, probe=None) -> None:
        original = getattr(module, name)
        wrapped = self.recorder.timed(layer, original, probe)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapped)
                    self._undo.append((loaded, attr, original))

    def mapping(self, table: dict, layer: str) -> None:
        for key, original in list(table.items()):
            table[key] = self.recorder.timed(layer, original)
            self._undo.append((table, key, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()


def install(recorder: Recorder, serve: bool = False) -> Installation:
    """Wrap every layer's public entry points (see README.md's table)."""
    import repro.analysis.artifacts  # noqa: F401  (bind callers first)
    import repro.analysis.whatif
    import repro.batch.engine
    import repro.fuzz.build
    import repro.optimize.search  # noqa: F401
    from repro.analysis import rmb_lmb, useful
    from repro.analysis.crpd import CRPDAnalyzer
    from repro.analysis.store import ArtifactStore
    from repro.batch.pool import WarmPool
    from repro.experiments.setup import ALL_SPECS
    from repro.program import paths
    from repro.program.layout import SystemLayout
    from repro.vm.machine import Machine
    from repro.vm.trace import CompactTrace, NodeTraceAggregate
    from repro.wcrt import response_time

    inst = Installation(recorder)
    inst.method(Machine, "run", "vm", _vm_probe)
    inst.method(CompactTrace, "replay", "cache.replay", _replay_probe)
    inst.function(rmb_lmb, "solve_rmb_lmb", "analysis.flow")
    inst.function(useful, "compute_useful_blocks", "analysis.flow")
    inst.method(NodeTraceAggregate, "from_recorders", "analysis.flow")
    inst.function(paths, "enumerate_path_profiles", "program.paths", _paths_probe)
    for spec in ALL_SPECS:
        inst.mapping(spec.builders, "program.build")
    inst.function(repro.fuzz.build, "build_program", "program.build")
    inst.method(SystemLayout, "place", "program.build")
    inst.method(CRPDAnalyzer, "estimate_pair", "analysis.crpd")
    inst.function(response_time, "compute_task_wcrt", "wcrt", _wcrt_probe)
    inst.method(ArtifactStore, "get", "analysis.store.get", _store_get_probe)
    inst.method(ArtifactStore, "put", "analysis.store.put", _store_put_probe)
    inst.method(WarmPool, "seed", "batch.pool.seed", _pool_seed_probe)
    inst.replace(WarmPool, "map", _timed_pool_map(recorder, WarmPool.__dict__["map"]))
    inst.method(repro.analysis.whatif.WhatIfSession, "apply", "analysis.whatif", _whatif_probe)
    inst.method(
        repro.analysis.whatif.WhatIfSession, "set_assignment", "analysis.whatif",
        _whatif_probe,
    )
    if serve:
        from repro.serve import protocol

        for name in (
            "parse_request", "canonical_json", "point_payload",
            "whatif_payload", "envelope",
        ):
            inst.function(protocol, name, "serve.protocol")
    return inst


def layer_metrics(snap: dict) -> dict:
    """Fold a recorder snapshot into the named per-layer metrics; the
    workloads add the search, serve-timing and ``trace.*`` metrics."""
    count = lambda name: snap.get(name, 0)  # noqa: E731
    gets = count("analysis.store.get.calls")
    nodes = count("analysis.whatif.nodes")
    return {
        "vm.calls": count("vm.calls"),
        "vm.steps": count("vm.steps"),
        "vm.self_s": count("vm.self_s"),
        "cache.replay_calls": count("cache.replay.calls"),
        "cache.replay_accesses": count("cache.replay_accesses"),
        "cache.replay_self_s": count("cache.replay.self_s"),
        "cache.sim_misses": count("cache.sim_misses"),
        "analysis.flow.calls": count("analysis.flow.calls"),
        "analysis.flow.self_s": count("analysis.flow.self_s"),
        "program.paths.calls": count("program.paths.calls"),
        "program.paths.profiles": count("program.paths.profiles"),
        "program.paths.self_s": count("program.paths.self_s"),
        "program.build.calls": count("program.build.calls"),
        "program.build.self_s": count("program.build.self_s"),
        "analysis.crpd.pairs": count("analysis.crpd.calls"),
        "analysis.crpd.self_s": count("analysis.crpd.self_s"),
        "wcrt.fixpoints": count("wcrt.calls"),
        "wcrt.iterations": count("wcrt.iterations"),
        "wcrt.warm_started": count("wcrt.warm_started"),
        "wcrt.self_s": count("wcrt.self_s"),
        "analysis.store.gets": gets,
        "analysis.store.hit_ratio": count("analysis.store.hits") / gets if gets else 0.0,
        "analysis.store.get_self_s": count("analysis.store.get.self_s"),
        "analysis.store.put_self_s": count("analysis.store.put.self_s"),
        "analysis.store.bytes": count("analysis.store.bytes"),
        "batch.pool.seeds": count("batch.pool.seed.calls"),
        "batch.pool.ship_bytes": count("batch.pool.ship_bytes"),
        "batch.pool.reuse": count("batch.pool.reuse"),
        "batch.pool.self_s": count("batch.pool.seed.self_s") + count("batch.pool.map.self_s"),
        "batch.point.self_s": count("batch.point.self_s"),
        "analysis.whatif.edits": count("analysis.whatif.calls"),
        "analysis.whatif.reuse_ratio": count("analysis.whatif.reused") / nodes if nodes else 0.0,
        "analysis.whatif.self_s": count("analysis.whatif.self_s"),
        "optimize.self_s": count("optimize.self_s"),
        "serve.protocol_self_s": count("serve.protocol.self_s"),
    }
