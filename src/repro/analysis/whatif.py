"""Incremental what-if re-analysis for interactive editing loops.

A :class:`WhatIfSession` holds one analysed system — a paper experiment
(``"exp1"``/``"exp2"``) or a fuzz :class:`~repro.fuzz.spec.SystemSpec` —
and re-analyses it after single-field edits (miss penalty, cache
geometry, one task's period, one task's array footprint) at interactive
latency.  ROADMAP item 2's target is < 50 ms per edit warm; the layout
optimizer workload (ROADMAP item 3) sits on this layer.

The incremental machinery is the schema-3 content-addressed artifact
graph itself.  Every pipeline stage is keyed by exactly the inputs it
reads::

    trace(structure, scenarios, max_steps)   # placement-free streams
      -> sim(trace, placement, geometry)     # hit/miss counts
      -> flow(trace, placement, geometry)    # CIIP / RMB-LMB / useful blocks
    paths(structure, limit, strict)          # feasible path profiles
    pair(flow_a, paths_a, flow_b, paths_b, mode, engine, strict)
    task(everything above + config)     # in-memory assembly memo

so the *reverse* dependency graph of an edit is computed by key diffing:
an edit invalidates precisely the sub-artifacts whose keys changed, and
every unchanged key is answered by the session's store — byte-identical
values and byte-identical replayed degradation events (the equivalence
suite pins this against cold sessions, >= 150 randomized cases).  The
per-edit invalidation/reuse counts are surfaced on the ``whatif.edit``
span and the ``whatif.invalidated.*`` / ``whatif.reused.*`` counters.

Edit impact over that graph:

==================  =====  ===  ====  =====  ====  ====  ====
edit                trace  sim  flow  paths  pair  wcet  wcrt
==================  =====  ===  ====  =====  ====  ====  ====
``penalty=N``       keep   keep keep  keep   keep  redo  redo
``geometry=SxWxL``  keep   redo redo  keep   redo  redo  redo
``period:T=N``      keep   keep keep  keep   keep  keep  T + lower
``array:T:J=W``     T      shift shift T     T     T     redo
``code:T=A``        keep   T    T     keep   T     T     redo
``data:T=A``        keep   T    T     keep   T     T     redo
``color:T:J=C``     keep   T    T     keep   T     T     redo
``swap:T1=T2``      keep   both both  keep   pairs both  redo
assignment jump     keep   moved moved keep  moved moved redo
==================  =====  ===  ====  =====  ====  ====  ====

("shift": a footprint edit can move *other* tasks' layouts too — the
stagger stride depends on the largest program — so per-task key diffing,
not the edit's target, decides what actually recomputes.)

The layout edits (``code:``/``data:``/``color:``/``swap:``) and
:meth:`WhatIfSession.set_assignment` jumps are the optimizer's neighbor
moves: they pin explicit placements through a
:class:`~repro.program.layout.LayoutAssignment` and invalidate only the
moved tasks' sim and flow entries.  Traces and path profiles carry no
placement, so they always survive a move: a moved task relocates its
stored reference stream and replays it through the cache, without
re-running the VM.  Proposals that would overlap regions raise
:class:`~repro.program.layout.LayoutError` *before* any session state
changes, so a rejected move leaves the session untouched.

A batch of edits applied together must be conflict-free:
:func:`check_edit_conflicts` rejects two edits that write the same
target (two ``period:T1=`` edits, a ``swap:`` plus any placement edit of
a swapped task, ...) instead of silently letting the last one win.

WCRT fixpoints are memoised per (approach, task) and warm-started from
the previous fixpoint only when provably sound — see
:func:`repro.analysis.pipeline.wcrt_stage` and ``docs/performance.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Union

from repro.analysis.pipeline import (
    GRAPH_NODES,
    SystemResult,
    evaluate,
    place,
    resolve_base,
)
from repro.analysis.store import ArtifactStore
from repro.cache.config import CacheConfig
from repro.errors import ConfigError
from repro.obs import STATE as _OBS

if TYPE_CHECKING:
    from repro.batch.pool import WarmPool
    from repro.guard.budget import AnalysisBudget


@dataclass(frozen=True)
class Edit:
    """One single-field edit of a what-if session's system.

    ``kind`` is one of ``"penalty"`` (new ``Cmiss``), ``"geometry"``
    (``(num_sets, ways, line_size)``), ``"period"`` (``task`` +
    cycles), ``"array"`` (``task`` + array ``index`` + new word
    count; fuzz-spec bases only), or a layout move: ``"code"`` /
    ``"data"`` (``task`` + new base address), ``"color"`` (``task`` +
    array ``index`` + page color) or ``"swap"`` (``task`` and ``value``
    name the two tasks whose regions trade places).
    """

    kind: str
    value: Union[int, tuple, str]
    task: "str | None" = None
    index: "int | None" = None

    def describe(self) -> str:
        if self.kind == "penalty":
            return f"penalty={self.value}"
        if self.kind == "geometry":
            sets, ways, line = self.value
            return f"geometry={sets}x{ways}x{line}"
        if self.kind == "period":
            return f"period:{self.task}={self.value}"
        if self.kind == "array":
            return f"array:{self.task}:{self.index}={self.value}"
        if self.kind in ("code", "data"):
            return f"{self.kind}:{self.task}={self.value:#x}"
        if self.kind == "color":
            return f"color:{self.task}:{self.index}={self.value}"
        if self.kind == "swap":
            return f"swap:{self.task}={self.value}"
        return f"{self.kind}={self.value!r}"


def parse_edit(text: str) -> Edit:
    """Parse the CLI edit grammar into an :class:`Edit`.

    ``penalty=N`` | ``geometry=SxWxL`` | ``period:TASK=N`` |
    ``array:TASK:INDEX=WORDS`` | ``code:TASK=ADDR`` | ``data:TASK=ADDR``
    | ``color:TASK:INDEX=COLOR`` | ``swap:TASK=TASK``
    """
    if "=" not in text:
        raise ConfigError(f"edit {text!r} is missing '=<value>'")
    head, _, raw = text.partition("=")
    head = head.strip()
    raw = raw.strip()
    if head == "penalty":
        return Edit(kind="penalty", value=_int(raw, text))
    if head == "geometry":
        parts = raw.lower().split("x")
        if len(parts) != 3:
            raise ConfigError(
                f"edit {text!r}: geometry must be SETSxWAYSxLINE (e.g. 64x2x32)"
            )
        fields = ("num_sets", "ways", "line_size")
        values = []
        for name, part in zip(fields, parts):
            value = _int(part, text)
            if value < 1:
                raise ConfigError(
                    f"edit {text!r}: geometry {name} must be >= 1, got "
                    f"{value} (hex like 0x40 splits on its 'x'; write "
                    f"geometry fields in decimal)"
                )
            values.append(value)
        return Edit(kind="geometry", value=tuple(values))
    if head.startswith("period:"):
        task = head.split(":", 1)[1]
        if not task:
            raise ConfigError(f"edit {text!r}: missing task name")
        return Edit(kind="period", task=task, value=_int(raw, text))
    if head.startswith("array:"):
        parts = head.split(":")
        if len(parts) != 3 or not parts[1]:
            raise ConfigError(
                f"edit {text!r}: array edits are array:TASK:INDEX=WORDS"
            )
        return Edit(
            kind="array",
            task=parts[1],
            index=_int(parts[2], text),
            value=_int(raw, text),
        )
    if head.startswith("code:") or head.startswith("data:"):
        kind, task = head.split(":", 1)
        if not task:
            raise ConfigError(f"edit {text!r}: missing task name")
        return Edit(kind=kind, task=task, value=_int(raw, text))
    if head.startswith("color:"):
        parts = head.split(":")
        if len(parts) != 3 or not parts[1]:
            raise ConfigError(
                f"edit {text!r}: color edits are color:TASK:INDEX=COLOR"
            )
        return Edit(
            kind="color",
            task=parts[1],
            index=_int(parts[2], text),
            value=_int(raw, text),
        )
    if head.startswith("swap:"):
        task = head.split(":", 1)[1]
        if not task or not raw:
            raise ConfigError(f"edit {text!r}: swap edits are swap:TASK=TASK")
        return Edit(kind="swap", task=task, value=raw)
    raise ConfigError(
        f"unknown edit {text!r}; expected penalty=, geometry=, period:TASK=, "
        "array:TASK:INDEX=, code:TASK=, data:TASK=, color:TASK:INDEX= or "
        "swap:TASK="
    )


def _int(raw: str, context: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"edit {context!r}: {raw!r} is not an integer") from None


def edit_targets(edit: Edit) -> frozenset:
    """The (field, ...) targets *edit* writes, for conflict detection.

    A ``swap:`` writes both swapped tasks' ``code_base`` and
    ``data_base``, so it conflicts with any ``code:``/``data:`` edit (or
    other swap) touching either task.  It does not move pinned symbols,
    so ``color:`` edits of the swapped tasks are compatible.
    """
    if edit.kind == "penalty":
        return frozenset({("penalty",)})
    if edit.kind == "geometry":
        return frozenset({("geometry",)})
    if edit.kind == "period":
        return frozenset({("period", edit.task)})
    if edit.kind == "array":
        return frozenset({("array", edit.task, edit.index)})
    if edit.kind in ("code", "data"):
        return frozenset({(f"{edit.kind}_base", edit.task)})
    if edit.kind == "color":
        return frozenset({("symbol", edit.task, edit.index)})
    if edit.kind == "swap":
        targets = set()
        for task in (edit.task, edit.value):
            targets.update({("code_base", task), ("data_base", task)})
        return frozenset(targets)
    return frozenset({(edit.kind,)})


def _edits_conflict(a: Edit, b: Edit) -> bool:
    return bool(edit_targets(a) & edit_targets(b))


def check_edit_conflicts(edits) -> None:
    """Reject a batch where two edits write the same target.

    Without this check the last edit silently wins (two ``period:T1=``
    edits, say) — almost always a typo in an interactive loop and always
    ambiguous in a scripted one.  Raises :class:`ConfigError` naming the
    conflicting pair.
    """
    edits = list(edits)
    for i, first in enumerate(edits):
        for second in edits[i + 1 :]:
            if _edits_conflict(first, second):
                raise ConfigError(
                    f"conflicting edits in one batch: "
                    f"{first.describe()!r} and {second.describe()!r} write "
                    "the same target; apply them in separate batches if "
                    "the override is intended"
                )


class WhatIfSession:
    """An editable, incrementally re-analysed system.

    Args:
        base: ``"exp1"``/``"exp2"``, an
            :class:`~repro.experiments.setup.ExperimentSpec`, or a fuzz
            :class:`~repro.fuzz.spec.SystemSpec`.
        miss_penalty: initial ``Cmiss`` (experiments default to 20, fuzz
            specs to their own cache's penalty).
        cache: full initial :class:`CacheConfig` override.
        period_overrides: task name -> period in cycles, replacing the
            base's period (or the fuzz ``period_mult`` formula).
        budget: optional guarded-analysis budget, shared by every state.
        mumbs_mode: Approach-4 variant; defaults to the base's
            convention (``"paper"`` for experiments, ``"per_point"``
            for fuzz specs) so session results match
            :func:`~repro.experiments.setup.build_context` /
            :func:`~repro.fuzz.build.build_case` respectively.
        path_engine: forwarded to the :class:`CRPDAnalyzer`; defaults to
            the vectorized ``"dense"`` engine.
        jobs / pool: fan the per-pair CRPD work across a
            :class:`~repro.batch.pool.WarmPool` (sessions riding a
            sweep's pool pass it in; ``jobs > 1`` without a pool makes
            the session own one until :meth:`close`).
        store: the session's artifact store.  Defaults to a private
            in-memory store sized for interactive editing; pass a disk
            store to share sub-artifacts with sweeps and the CLI.
    """

    def __init__(
        self,
        base,
        *,
        miss_penalty: "int | None" = None,
        cache: "CacheConfig | None" = None,
        period_overrides: "dict | None" = None,
        budget: "AnalysisBudget | None" = None,
        mumbs_mode: "str | None" = None,
        path_engine: str = "dense",
        jobs: int = 1,
        pool: "WarmPool | None" = None,
        store: "ArtifactStore | None" = None,
    ):
        exp_spec, self._fuzz_spec = resolve_base(base)
        self.budget = budget
        self.path_engine = path_engine
        self.jobs = jobs
        self._pool = pool
        self._own_pool = None
        self._mumbs_mode = mumbs_mode
        self._store = store if store is not None else ArtifactStore(
            directory=None, memory_slots=1024
        )
        self._placed = place(
            exp_spec or self._fuzz_spec,
            period_overrides=dict(period_overrides or {}),
        )
        #: The current cache configuration.
        self.config = (
            cache if cache is not None else self._placed.config(miss_penalty)
        )
        self._assignment = None
        # Previous-state snapshots driving invalidation accounting and
        # WCRT warm starts.
        self._prev_subkeys: dict = {}
        self._prev_artifacts: dict = {}
        self._prev_pair_keys: dict = {}
        self._wcrt_memo: dict = {}
        self._last: "SystemResult | None" = None
        #: The live CRPD analyzer behind the current state.
        self.analyzer = None

    @property
    def order(self) -> tuple:
        """Task names, highest priority first."""
        return self._placed.order

    @property
    def layouts(self) -> dict:
        """The current placement, task name -> ProgramLayout."""
        return self._placed.layouts

    @property
    def context_switch(self) -> int:
        return self._placed.context_switch

    @property
    def store(self) -> ArtifactStore:
        """The session's artifact store."""
        return self._store

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "WhatIfSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the session-owned worker pool, if any."""
        if self._own_pool is not None:
            self._own_pool.close()
            self._own_pool = None

    def _pool_handle(self) -> "WarmPool | None":
        if self._pool is not None:
            return self._pool
        if self.jobs > 1 and self._own_pool is None:
            from repro.batch.pool import WarmPool

            self._own_pool = WarmPool(self.jobs)
        return self._own_pool

    # -- structure -----------------------------------------------------
    def layout_assignment(self):
        """The current placement as a hashable
        :class:`~repro.program.layout.LayoutAssignment`."""
        from repro.program.layout import assignment_of

        return assignment_of(self._placed.layouts)

    def set_assignment(
        self, assignment, label: "str | None" = None
    ) -> SystemResult:
        """Jump the session's layout to *assignment* and re-analyse.

        The optimizer's bulk entry: rather than expressing a candidate as
        a chain of single-field layout edits, jump straight to its
        placement.  Overlapping assignments raise
        :class:`~repro.program.layout.LayoutError` before any session
        state changes.  Incremental reuse still applies — only tasks
        whose placement actually differs recompute their trace chain.
        """
        self._set_assignment(assignment)
        return self._evaluate(label or "assignment")

    def _set_assignment(self, assignment) -> None:
        # Validate (and build) before mutating: a LayoutError here must
        # leave the session exactly as it was.
        self._placed = self._placed.with_assignment(assignment)
        self._assignment = assignment

    # -- edits ---------------------------------------------------------
    def apply(self, edit: "Edit | str") -> SystemResult:
        """Apply one edit and return the fully re-analysed state."""
        if isinstance(edit, str):
            edit = parse_edit(edit)
        self._apply_edit(edit)
        return self._evaluate(edit.describe())

    def apply_all(self, edits) -> "list[SystemResult]":
        """Apply a batch of edits, rejecting conflicting pairs up front.

        Raises :class:`~repro.errors.ConfigError` (before any edit runs)
        if two edits in the batch write the same target — see
        :func:`check_edit_conflicts`.
        """
        parsed = [
            parse_edit(edit) if isinstance(edit, str) else edit for edit in edits
        ]
        check_edit_conflicts(parsed)
        return [self.apply(edit) for edit in parsed]

    def result(self) -> SystemResult:
        """The current state, analysing the base on first call."""
        if self._last is None:
            return self._evaluate("base")
        return self._last

    def _apply_edit(self, edit: Edit) -> None:
        if edit.kind == "penalty":
            if edit.value < 0:
                raise ConfigError(f"miss penalty must be >= 0, got {edit.value}")
            self.config = replace(self.config, miss_penalty=edit.value)
            return
        if edit.kind == "geometry":
            sets, ways, line = edit.value
            self.config = replace(
                self.config, num_sets=sets, ways=ways, line_size=line
            )
            return
        if edit.kind == "period":
            self._check_task(edit.task)
            if edit.value < 1:
                raise ConfigError(f"period must be >= 1, got {edit.value}")
            self._placed.period_overrides[edit.task] = edit.value
            return
        if edit.kind == "array":
            if self._fuzz_spec is None:
                raise ConfigError(
                    "array edits need a fuzz SystemSpec base (experiment "
                    "workloads have fixed programs)"
                )
            self._check_task(edit.task)
            from repro.fuzz.spec import replace_task

            index = self.order.index(edit.task)
            task_def = self._fuzz_spec.tasks[index]
            arrays = list(task_def.program.arrays)
            if not 0 <= edit.index < len(arrays):
                raise ConfigError(
                    f"task {edit.task!r} has arrays 0..{len(arrays) - 1}, "
                    f"got index {edit.index}"
                )
            if edit.value < 1:
                raise ConfigError(f"array words must be >= 1, got {edit.value}")
            arrays[edit.index] = edit.value
            program = replace(task_def.program, arrays=tuple(arrays))
            spec = replace_task(
                self._fuzz_spec, index, replace(task_def, program=program)
            )
            # A footprint edit can move every task (the stagger stride
            # follows the largest program): re-place the whole system.
            self._placed = place(
                spec, self._assignment, self._placed.period_overrides
            )
            self._fuzz_spec = spec
            return
        if edit.kind in ("code", "data", "color", "swap"):
            self._apply_layout_edit(edit)
            return
        raise ConfigError(f"unknown edit kind {edit.kind!r}")

    def _check_task(self, name: str) -> None:
        if name not in self.order:
            raise ConfigError(
                f"unknown task {name!r}; tasks are {list(self.order)}"
            )

    def _apply_layout_edit(self, edit: Edit) -> None:
        self._check_task(edit.task)
        assignment = self.layout_assignment()
        placement = assignment.placement(edit.task)
        if edit.kind in ("code", "data"):
            if edit.value < 0:
                raise ConfigError(
                    f"{edit.kind} base must be non-negative, got {edit.value}"
                )
            candidate = assignment.replace(
                replace(placement, **{f"{edit.kind}_base": edit.value})
            )
        elif edit.kind == "color":
            program = self.layouts[edit.task].program
            names = list(program.arrays)
            if not 0 <= edit.index < len(names):
                raise ConfigError(
                    f"task {edit.task!r} has arrays 0..{len(names) - 1}, "
                    f"got index {edit.index}"
                )
            colors = self.config.page_colors
            if not 0 <= edit.value < colors:
                raise ConfigError(
                    f"color must be in 0..{colors - 1} for this geometry, "
                    f"got {edit.value}"
                )
            base = self._color_base(edit.value)
            symbols = dict(placement.symbols)
            symbols[names[edit.index]] = base
            candidate = assignment.replace(
                replace(placement, symbols=tuple(sorted(symbols.items())))
            )
        else:  # swap
            other_name = edit.value
            self._check_task(other_name)
            if other_name == edit.task:
                raise ConfigError(f"cannot swap task {edit.task!r} with itself")
            other = assignment.placement(other_name)
            # Trade region origins only: pinned symbols name arrays of
            # their own program, so they stay with their task.
            candidate = assignment.replace(
                replace(
                    placement,
                    code_base=other.code_base,
                    data_base=other.data_base,
                )
            ).replace(
                replace(
                    other,
                    code_base=placement.code_base,
                    data_base=placement.data_base,
                )
            )
        self._set_assignment(candidate)

    def _color_base(self, color: int) -> int:
        """A concrete address in *color*'s band, in fresh space.

        The band is computed against the *current* geometry; the pinned
        address is absolute, so a later geometry edit reinterprets (but
        never moves) it — exactly how a linker-placed symbol behaves.
        """
        top = 0
        for layout in self.layouts.values():
            for _, hi, _ in layout.intervals():
                top = max(top, hi)
        span = self.config.index_span
        aligned = (top + span - 1) // span * span
        return aligned + color * self.config.color_bytes

    # -- analysis ------------------------------------------------------
    def _evaluate(self, label: str) -> SystemResult:
        started = time.perf_counter()
        with _OBS.tracer.span("whatif.edit", edit=label) as span:
            result = evaluate(
                self._placed,
                self.config,
                budget=self.budget,
                store=self._store,
                mumbs_mode=self._mumbs_mode,
                path_engine=self.path_engine,
                jobs=self.jobs,
                pool=self._pool_handle(),
                wcrt_memo=self._wcrt_memo,
                key_diff=self._diff_artifacts,
                label=label,
            )
            result.elapsed_seconds = time.perf_counter() - started
            invalidated, reused = result.invalidated, result.reused
            span.set(
                elapsed_ms=round(result.elapsed_seconds * 1e3, 3),
                warm_started=result.warm_started,
                **{f"invalidated_{k}": v for k, v in invalidated.items()},
            )
            if _OBS.enabled:
                metrics = _OBS.metrics
                metrics.counter("whatif.edits").inc()
                for node in GRAPH_NODES:
                    if invalidated[node]:
                        metrics.counter(f"whatif.invalidated.{node}").inc(
                            invalidated[node]
                        )
                    if reused[node]:
                        metrics.counter(f"whatif.reused.{node}").inc(reused[node])
        self._last = result
        return result

    def _diff_artifacts(self, analyzer, invalidated: dict, reused: dict) -> None:
        """Key-diff the new state's sub-artifacts against the previous one."""
        self.analyzer = analyzer
        artifacts = analyzer.tasks
        order = self.order
        new_subkeys = {}
        for name in order:
            new = dict(artifacts[name].subkeys or {})
            old = self._prev_subkeys.get(name, {})
            new_subkeys[name] = new
            for stage in ("trace", "sim", "flow", "paths"):
                if new.get(stage) is not None and new.get(stage) == old.get(stage):
                    reused[stage] += 1
                else:
                    invalidated[stage] += 1
            if artifacts[name] is self._prev_artifacts.get(name):
                reused["task"] += 1
            else:
                invalidated["task"] += 1
        new_pair_keys = {}
        for low_index, preempted in enumerate(order):
            for preempting in order[:low_index]:
                key = analyzer._pair_store_key(preempted, preempting)
                new_pair_keys[(preempted, preempting)] = key
                if key is not None and key == self._prev_pair_keys.get(
                    (preempted, preempting)
                ):
                    reused["pair"] += 1
                else:
                    invalidated["pair"] += 1
        self._prev_subkeys = new_subkeys
        self._prev_artifacts = artifacts
        self._prev_pair_keys = new_pair_keys
