"""The one evaluation pipeline: place a system, then evaluate it.

The paper's analysis is one chain — simulation-derived WCETs and traces,
RMB/LMB useful blocks, CIIP path analysis for the four CRPD approaches,
the Eq. 7 WCRT fixpoint.  :func:`place` builds and places an experiment
or a fuzz :class:`~repro.fuzz.spec.SystemSpec`; :func:`evaluate` runs
the chain at one cache configuration and returns a
:class:`SystemResult`, the one result type.  ``analyze_batch`` maps
:func:`evaluate` over sweep points,
:class:`~repro.analysis.whatif.WhatIfSession` adds a persistent store, a
WCRT memo and key diffing, and serve and the optimizer read the
:class:`SystemResult`.  ``build_context`` and ``build_case`` keep their
lazily queried contexts but place and build their analyzers here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING

from repro.analysis.artifacts import analyze_task
from repro.analysis.crpd import ALL_APPROACHES, CRPDAnalyzer
from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.guard.ledger import DegradationLedger
from repro.wcrt.response_time import compute_task_wcrt
from repro.wcrt.task import TaskSpec, TaskSystem

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore
    from repro.batch.engine import SweepPoint
    from repro.batch.pool import WarmPool
    from repro.guard.budget import AnalysisBudget

#: The cache fields a result payload reports.
_CONFIG_KEYS = (
    "num_sets", "ways", "line_size", "miss_penalty", "policy", "write_back"
)

#: Sub-artifact node classes reported by the invalidation counters.
GRAPH_NODES = ("trace", "sim", "flow", "paths", "task", "pair", "wcrt")


@dataclass(frozen=True)
class TaskRule:
    """How one task's WCET becomes its :class:`TaskSpec`: a fixed
    ``period`` (experiments) or ``max(wcet * period_mult, wcet + 1)``
    (fuzz specs); jitter is ``jitter_pct`` % of the WCET, capped by the
    slack."""

    priority: int
    period: "int | None" = None
    period_mult: int = 0
    jitter_pct: int = 0


@dataclass
class Placed:
    """A built and placed system, ready to evaluate at any cache config.

    Picklable: the batch engine ships it to the warm pool.  A what-if
    session edits ``period_overrides`` (task -> cycles) in place.
    """

    order: tuple
    layouts: dict
    scenarios: dict
    rules: dict
    cache: CacheConfig
    context_switch: int = 0
    mumbs_mode: str = "per_point"
    period_overrides: dict = field(default_factory=dict)

    def config(self, miss_penalty: "int | None" = None) -> CacheConfig:
        """The base's own cache, optionally at another miss penalty."""
        if miss_penalty is None:
            return self.cache
        return replace(self.cache, miss_penalty=miss_penalty)

    def task_specs(self, wcets: dict) -> list:
        specs = []
        for name in self.order:
            rule, wcet = self.rules[name], wcets[name]
            period = self.period_overrides.get(
                name,
                rule.period
                if rule.period is not None
                else max(wcet * rule.period_mult, wcet + 1),
            )
            jitter = min(wcet * rule.jitter_pct // 100, max(period - wcet, 0))
            specs.append(TaskSpec(name, wcet, period, rule.priority, jitter=jitter))
        return specs

    def with_assignment(self, assignment) -> "Placed":
        """The system re-placed at an explicit
        :class:`~repro.program.layout.LayoutAssignment`; overlapping or
        incomplete assignments raise ``LayoutError``."""
        from repro.program.layout import LayoutError, apply_assignment

        layouts = apply_assignment(
            {name: self.layouts[name].program for name in self.order},
            assignment,
        )
        missing = [name for name in self.order if name not in layouts]
        if missing:
            raise LayoutError(f"assignment is missing tasks {missing}")
        return replace(self, layouts={name: layouts[name] for name in self.order})


def resolve_base(base):
    """``(experiment_spec, fuzz_spec)`` for an experiment key,
    :class:`~repro.experiments.setup.ExperimentSpec` or fuzz
    :class:`~repro.fuzz.spec.SystemSpec` — exactly one is set."""
    from repro.experiments.setup import ALL_SPECS, ExperimentSpec
    from repro.fuzz.spec import SystemSpec

    if isinstance(base, str):
        for spec in ALL_SPECS:
            if spec.key == base:
                return spec, None
        raise ConfigError(
            f"unknown experiment {base!r}; choose from "
            f"{[spec.key for spec in ALL_SPECS]}"
        )
    if isinstance(base, ExperimentSpec):
        return base, None
    if isinstance(base, SystemSpec):
        return None, base
    raise ConfigError(
        f"what-if base must be an experiment key, ExperimentSpec or fuzz "
        f"SystemSpec, got {type(base).__name__}"
    )


def place(base, assignment=None, period_overrides=None) -> Placed:
    """Build every program of *base* and place it in memory.

    Experiments place their workloads at the spec's stride in placement
    order and use Definition 4 MUMBS verbatim, as the paper's tables do;
    fuzz specs place ``t0..tN`` packed or staggered and use the sound
    ``per_point`` variant.  An *assignment* re-places the programs.
    """
    from repro.program.layout import SystemLayout

    exp_spec, fuzz_spec = resolve_base(base)
    if exp_spec is not None:
        workloads = {name: build() for name, build in exp_spec.builders.items()}
        layout = SystemLayout(stride=exp_spec.stride)
        for name in exp_spec.placement_order:
            layout.place(workloads[name].program)
        order = tuple(exp_spec.priority_order)
        priorities = exp_spec.priorities()
        placed = Placed(
            order=order,
            layouts={name: layout.layout_of(name) for name in order},
            scenarios={name: workloads[name].scenario_map() for name in order},
            rules={
                name: TaskRule(priorities[name], period=exp_spec.periods[name])
                for name in order
            },
            cache=CacheConfig.scaled_8k(),
            context_switch=exp_spec.context_switch_cycles,
            mumbs_mode="paper",
        )
    else:
        from repro.fuzz.build import _stagger_stride, build_program, scenarios_for

        built = [
            build_program(task.program, f"t{index}")
            for index, task in enumerate(fuzz_spec.tasks)
        ]
        programs = [program for program, _ in built]
        layout = SystemLayout(
            stride=_stagger_stride(programs) if fuzz_spec.stagger else None
        )
        cache = fuzz_spec.cache
        placed = Placed(
            order=tuple(program.name for program in programs),
            layouts={program.name: layout.place(program) for program in programs},
            scenarios={p.name: scenarios_for(inputs) for p, inputs in built},
            rules={
                program.name: TaskRule(
                    index + 1,
                    period_mult=task.period_mult,
                    jitter_pct=task.jitter_pct,
                )
                for index, (program, task) in enumerate(
                    zip(programs, fuzz_spec.tasks)
                )
            },
            cache=CacheConfig(
                cache.num_sets, cache.ways, cache.line_size, cache.miss_penalty,
                policy=cache.policy, write_back=cache.write_back,
            ),
            context_switch=fuzz_spec.context_switch,
        )
    if period_overrides is not None:
        placed.period_overrides = period_overrides
    if assignment is not None:
        placed = placed.with_assignment(assignment)
    return placed


def analyze_tasks(placed: Placed, config: CacheConfig, **options) -> dict:
    """:func:`~repro.analysis.artifacts.analyze_task` for every task;
    *options* (``budget``, ``ledger``, ``clock``, ``store``) pass through."""
    return {
        name: analyze_task(
            placed.layouts[name], placed.scenarios[name], config, **options
        )
        for name in placed.order
    }


def crpd_analyzer(
    placed: Placed, artifacts: dict, mumbs_mode=None, **options
) -> CRPDAnalyzer:
    """The CRPD analyzer over *artifacts*, in the base's MUMBS mode unless
    *mumbs_mode* overrides it; *options* pass through."""
    return CRPDAnalyzer(
        artifacts, mumbs_mode=mumbs_mode or placed.mumbs_mode, **options
    )


@dataclass
class SystemResult:
    """One fully analysed system at one cache configuration.

    ``responses`` maps each approach to its per-task
    :class:`~repro.wcrt.response_time.WCRTResult` (true fixpoints:
    ``stop_at_deadline=False``).  The fields up to ``events`` are the
    analysis content :meth:`payload` serialises; the rest is telemetry
    and provenance (the sweep ``point``, the ``system`` behind the
    WCRTs).  Results hold no task artifacts, so keeping many is cheap.
    """

    label: str
    config: CacheConfig
    periods: dict
    jitters: dict
    wcet: dict
    estimates: list
    responses: dict
    soundness: str
    events: tuple
    elapsed_seconds: float = 0.0
    store_hits: int = 0
    store_misses: int = 0
    invalidated: dict = field(default_factory=dict)
    reused: dict = field(default_factory=dict)
    warm_started: int = 0
    point: "SweepPoint | None" = None
    system: "TaskSystem | None" = field(default=None, repr=False)

    @property
    def wcrt(self) -> dict:
        """``approach value -> task -> WCRT`` in cycles."""
        return {
            approach.value: {name: r.wcrt for name, r in per_task.items()}
            for approach, per_task in self.responses.items()
        }

    @property
    def schedulable(self) -> dict:
        """``approach value -> whole-system verdict``."""
        return {
            approach.value: all(r.schedulable for r in per_task.values())
            for approach, per_task in self.responses.items()
        }

    def payload(self) -> dict:
        """Every analysis result, JSON-ready: no timing, store traffic,
        reuse counters or iteration histories — everything a cached or
        incremental recompute may legitimately differ in."""
        config = self.config
        return {
            "config": {key: getattr(config, key) for key in _CONFIG_KEYS},
            "periods": dict(self.periods),
            "jitters": dict(self.jitters),
            "wcet": dict(self.wcet),
            "lines": {
                f"{e.preempted}<-{e.preempting}": {
                    str(a.value): count for a, count in e.lines.items()
                }
                for e in self.estimates
            },
            "wcrt": {str(a): per for a, per in self.wcrt.items()},
            "status": {
                str(a.value): {name: r.status for name, r in per_task.items()}
                for a, per_task in self.responses.items()
            },
            "schedulable": {str(a): ok for a, ok in self.schedulable.items()},
            "soundness": self.soundness,
            "events": [
                [e.stage, e.budget, e.reason, e.fallback] for e in self.events
            ],
        }

    def signature(self) -> str:
        """Canonical JSON of :meth:`payload`, the byte-identity surface."""
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

    def to_dict(self) -> dict:
        """:meth:`payload` plus label and what-if telemetry."""
        return dict(
            self.payload(),
            label=self.label,
            elapsed_seconds=self.elapsed_seconds,
            invalidated=dict(self.invalidated),
            reused=dict(self.reused),
            warm_started=self.warm_started,
        )


def evaluate(
    placed: Placed,
    config: CacheConfig,
    *,
    budget: "AnalysisBudget | None" = None,
    store: "ArtifactStore | None" = None,
    mumbs_mode: "str | None" = None,
    path_engine: str = "auto",
    jobs: int = 1,
    pool: "WarmPool | None" = None,
    wcrt_memo: "dict | None" = None,
    key_diff=None,
    label: str = "",
    point: "SweepPoint | None" = None,
) -> SystemResult:
    """Analyse *placed* at *config*: every task, every pair, Eq. 7.

    One budget clock and one degradation ledger span the chain;
    ``jobs``/``pool`` fan the CRPD pairs across a warm pool.  *wcrt_memo*
    carries fixpoints between evaluations of one system (see
    :func:`wcrt_stage`); without it every fixpoint iterates cold.
    ``key_diff(analyzer, invalidated, reused)`` sees the live analyzer
    once the pairs are estimated and may count reused sub-artifacts.
    """
    started = perf_counter()
    hits, misses = (store.hits, store.misses) if store is not None else (0, 0)
    ledger = DegradationLedger()
    clock = budget.start() if budget is not None else None
    options = dict(budget=budget, ledger=ledger, clock=clock, store=store)
    artifacts = analyze_tasks(placed, config, **options)
    analyzer = crpd_analyzer(
        placed, artifacts, mumbs_mode, path_engine=path_engine, **options
    )
    estimates = analyzer.estimate_all_pairs(list(placed.order), jobs=jobs, pool=pool)
    invalidated = dict.fromkeys(GRAPH_NODES, 0)
    reused = dict.fromkeys(GRAPH_NODES, 0)
    if key_diff is not None:
        key_diff(analyzer, invalidated, reused)
    wcet = {name: artifacts[name].wcet.cycles for name in placed.order}
    system = TaskSystem(tasks=placed.task_specs(wcet))
    responses, warm_started = wcrt_stage(
        system, analyzer, placed.context_switch,
        {} if wcrt_memo is None else wcrt_memo,
        budget, ledger, invalidated, reused,
    )
    return SystemResult(
        label=label,
        config=config,
        periods={task.name: task.period for task in system.tasks},
        jitters={task.name: task.jitter for task in system.tasks},
        wcet=wcet,
        estimates=estimates,
        responses=responses,
        soundness=ledger.soundness,
        events=tuple(ledger.events),
        elapsed_seconds=perf_counter() - started,
        store_hits=store.hits - hits if store is not None else 0,
        store_misses=store.misses - misses if store is not None else 0,
        invalidated=invalidated,
        reused=reused,
        warm_started=warm_started,
        point=point,
        system=system,
    )


def wcrt_stage(
    system, analyzer, context_switch, memo, budget, ledger, invalidated, reused
):
    """Eq. 7 fixpoints per approach, memoised and warm-started.

    A (approach, task) node whose inputs — own WCET/period/jitter, the
    context switch and every interferer's (period, jitter, per-preemption
    cost) — match its *memo* entry reuses that result, replaying its
    divergence events so the ledger matches a cold run's.  Otherwise the
    iteration warm-starts from the old fixpoint when the new recurrence
    provably dominates the old one (:func:`_warm_start_sound`) and the
    iteration-budget guard holds, else it runs cold.  Returns
    ``(approach -> task -> WCRTResult, warm-started count)``.
    """
    max_iterations = 1000
    if budget is not None:
        max_iterations = min(max_iterations, budget.max_wcrt_iterations)
    ccs = context_switch
    fixpoint = dict(
        context_switch=ccs, max_iterations=max_iterations, stop_at_deadline=False
    )
    results: dict = {}
    warm_started = 0
    for approach in ALL_APPROACHES:
        def cpre(low: str, high: str, _approach=approach) -> int:
            return analyzer.cpre(low, high, _approach)

        per_approach = results[approach] = {}
        for task in system.tasks:
            interference = tuple(
                (other.name, other.period, other.jitter,
                 other.wcet + cpre(task.name, other.name) + 2 * ccs)
                for other in system.higher_priority(task.name)
            )
            sig = (task.wcet, task.period, task.jitter, ccs, interference)
            entry = memo.get((approach, task.name))
            if entry is not None and entry["sig"] == sig:
                ledger.events.extend(entry["events"])
                reused["wcrt"] += 1
                per_approach[task.name] = entry["result"]
                continue
            invalidated["wcrt"] += 1
            result = None
            if entry is not None and _warm_start_sound(entry["sig"], sig, entry):
                warm = compute_task_wcrt(
                    system, task.name, cpre=cpre,
                    initial_window=entry["window"], **fixpoint,
                )
                iter_bound = entry["iter_bound"] + warm.iteration_count
                # A cold run converges within max_iterations steps, so
                # this guard can never disagree with its verdict.
                if warm.converged and iter_bound <= max_iterations:
                    result, events = warm, ()
                    warm_started += 1
            if result is None:
                before = len(ledger.events)
                result = compute_task_wcrt(
                    system, task.name, cpre=cpre,
                    budget=budget, ledger=ledger, **fixpoint,
                )
                events = tuple(ledger.events[before:])
                iter_bound = result.iteration_count
            memo[(approach, task.name)] = {
                "sig": sig,
                "result": result,
                "events": events,
                "window": result.wcrt - task.jitter,
                "iter_bound": iter_bound,
            }
            per_approach[task.name] = result
    return results, warm_started


def _warm_start_sound(old_sig: tuple, new_sig: tuple, memo: dict) -> bool:
    """True when iterating from the old fixpoint provably reaches the new one.

    Requires the old iteration to have converged (a diverged window is
    not a fixpoint) and the new recurrence to dominate the old pointwise:
    own WCET non-decreasing and, interferer by interferer (same set, same
    order), period non-increasing, jitter non-decreasing and
    per-preemption cost (WCET + Cpre + 2 Ccs) non-decreasing.  Then
    ``w_old = lfp(f_old) <= lfp(f_new)`` and monotone iteration from
    ``w_old`` converges to ``lfp(f_new)`` exactly.
    """
    if not memo["result"].converged:
        return False
    old_wcet, _, _, _, old_interferers = old_sig
    new_wcet, _, _, _, new_interferers = new_sig
    if new_wcet < old_wcet or len(old_interferers) != len(new_interferers):
        return False
    for old_term, new_term in zip(old_interferers, new_interferers):
        o_name, o_period, o_jitter, o_cost = old_term
        n_name, n_period, n_jitter, n_cost = new_term
        if o_name != n_name:
            return False
        if n_period > o_period or n_jitter < o_jitter or n_cost < o_cost:
            return False
    return True
