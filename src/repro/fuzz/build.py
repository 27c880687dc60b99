"""Turn a :class:`SystemSpec` into a fully analysed, simulatable case.

Building is total over the generator's output *and* over everything the
shrinker can produce: memory sweeps are clamped to their array's extent,
array references wrap modulo the declared arrays, and empty bodies are
legal.  A spec that still fails to build (e.g. an invalid cache geometry
introduced by hand-editing a corpus entry) raises
:class:`~repro.errors.ConfigError`, which the shrinker treats as
"candidate invalid", never as "bug reproduced".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.artifacts import TaskArtifacts
from repro.analysis.crpd import CRPDAnalyzer
from repro.cache.config import CacheConfig
from repro.fuzz.spec import (
    BranchSpec,
    LoopSpec,
    MemSpec,
    Node,
    ProgramSpec,
    SystemSpec,
)
from repro.guard.budget import AnalysisBudget
from repro.guard.ledger import DegradationLedger
from repro.program.builder import Program, ProgramBuilder
from repro.program.layout import ProgramLayout, SystemLayout
from repro.sched.simulator import TaskBinding
from repro.wcrt.task import TaskSpec, TaskSystem

if TYPE_CHECKING:
    from repro.analysis.store import ArtifactStore


def _emit_body(b: ProgramBuilder, body: tuple[Node, ...], arrays) -> None:
    for node in body:
        if isinstance(node, MemSpec):
            if not arrays:
                continue
            decl = arrays[node.array % len(arrays)]
            stride = max(1, node.stride)
            count = max(0, min(node.count, decl.words // stride))

            def sweep() -> None:
                with b.loop(count) as i:
                    b.mul("idx", i, stride)
                    b.load("v", decl, index="idx")
                    b.binop("v", "add", "v", 1)
                    if node.store:
                        b.store("v", decl, index="idx")

            # A reps=1 wrapper would execute identically; eliding it keeps
            # shrunk cases at their true structural minimum.
            if node.reps > 1:
                with b.loop(node.reps):
                    sweep()
            else:
                sweep()
        elif isinstance(node, LoopSpec):
            with b.loop(node.bound):
                _emit_body(b, node.body, arrays)
        elif isinstance(node, BranchSpec):
            with b.if_else("f") as arms:
                with arms.then_case():
                    _emit_body(b, node.then, arrays)
                if node.orelse:
                    with arms.else_case():
                        _emit_body(b, node.orelse, arrays)
        else:  # pragma: no cover - spec layer rejects unknown kinds
            raise TypeError(f"unknown node {node!r}")


def build_program(spec: ProgramSpec, name: str) -> tuple[Program, dict[str, list[int]]]:
    """Build one program plus its base input map (flag defaults to 0)."""
    b = ProgramBuilder(name)
    arrays = [
        b.array(f"a{i}", words=max(1, words)) for i, words in enumerate(spec.arrays)
    ]
    flag = b.scalar("flag")
    b.load("f", flag, index=0)
    _emit_body(b, spec.body, arrays)
    program = b.build()
    inputs: dict[str, list[int]] = {"flag": [0]}
    for decl in arrays:
        inputs[decl.name] = list(range(decl.words))
    return program, inputs


def scenarios_for(inputs: dict[str, list[int]]) -> dict[str, dict[str, list[int]]]:
    """Both branch directions, so traces cover every feasible path."""
    zero = dict(inputs)
    zero["flag"] = [0]
    one = dict(inputs)
    one["flag"] = [1]
    return {"flag0": zero, "flag1": one}


def cfg_node_count(spec: SystemSpec) -> int:
    """Total CFG basic blocks across the spec's programs (the acceptance
    metric for shrink quality)."""
    total = 0
    for index, task in enumerate(spec.tasks):
        program, _ = build_program(task.program, f"t{index}")
        total += len(list(program.cfg.labels()))
    return total


@dataclass
class BuiltTask:
    """One placed, analysed task of a built case."""

    name: str
    program: Program
    layout: ProgramLayout
    inputs: dict[str, list[int]]
    scenarios: dict[str, dict[str, list[int]]]
    artifacts: TaskArtifacts
    spec: TaskSpec

    def binding(self) -> TaskBinding:
        worst = self.artifacts.wcet.worst_scenario
        return TaskBinding(
            spec=self.spec,
            layout=self.layout,
            inputs=dict(self.scenarios[worst]),
        )


@dataclass
class BuiltCase:
    """A spec realised into programs, layouts, artifacts and a task system.

    ``tasks`` is ordered highest priority first (priority ``i + 1`` for
    task ``i``), matching the spec's task order.
    """

    spec: SystemSpec
    config: CacheConfig
    tasks: list[BuiltTask]
    system: TaskSystem
    analyzer: CRPDAnalyzer
    ledger: DegradationLedger = field(default_factory=DegradationLedger)

    def bindings(self) -> list[TaskBinding]:
        return [task.binding() for task in self.tasks]

    def horizon(self) -> int:
        return 2 * max(task.spec.period for task in self.tasks)

    def pairs(self) -> list[tuple[BuiltTask, BuiltTask]]:
        """Every (preempted, preempting) pair, lower priority first."""
        out = []
        for low_index, low in enumerate(self.tasks):
            for high in self.tasks[:low_index]:
                out.append((low, high))
        return out


def _stagger_stride(programs: list[Program]) -> int:
    """A stride that fits the largest program, offset past a packed
    placement so staggered and packed layouts genuinely differ."""
    scratch = SystemLayout()
    extent = 0
    for program in programs:
        layout = scratch.place(program)
        extent = max(extent, max(layout.code_end, layout.data_end) - layout.code_base)
    alignment = SystemLayout.region_alignment
    extent = -(-extent // alignment) * alignment
    return extent + alignment


def build_case(
    spec: SystemSpec,
    budget: AnalysisBudget | None = None,
    store: "ArtifactStore | None" = None,
    mumbs_mode: str = "per_point",
    config: CacheConfig | None = None,
) -> BuiltCase:
    """Build, place and analyse one fuzz case.

    The analyzer defaults to ``per_point`` MUMBS (the sound-by-
    construction variant; Definition 4 verbatim can undercount a joint
    worst case, which is a documented reproduction finding rather than an
    engine bug).  ``config`` overrides the spec's cache — the Cmiss
    monotonicity oracle uses it to re-analyse at a doubled penalty.
    """
    from repro.analysis.pipeline import analyze_tasks, crpd_analyzer, place

    placed = place(spec)
    if config is None:
        config = placed.config()
    ledger = DegradationLedger()
    clock = budget.start() if budget is not None else None
    artifacts = analyze_tasks(
        placed, config, budget=budget, ledger=ledger, clock=clock, store=store
    )
    system = TaskSystem(
        tasks=placed.task_specs(
            {name: artifacts[name].wcet.cycles for name in placed.order}
        )
    )
    tasks = [
        BuiltTask(
            name=name,
            program=placed.layouts[name].program,
            layout=placed.layouts[name],
            # ``flag0`` is the base input map (the flag defaults to 0).
            inputs=dict(placed.scenarios[name]["flag0"]),
            scenarios=placed.scenarios[name],
            artifacts=artifacts[name],
            spec=system.task(name),
        )
        for name in placed.order
    ]
    analyzer = crpd_analyzer(
        placed,
        artifacts,
        mumbs_mode=mumbs_mode,
        budget=budget,
        ledger=ledger,
        clock=clock,
    )
    return BuiltCase(
        spec=spec,
        config=config,
        tasks=tasks,
        system=system,
        analyzer=analyzer,
        ledger=ledger,
    )
