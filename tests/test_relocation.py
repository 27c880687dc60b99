"""Relocatable traces: one recorded run serves every layout of a program.

The VM's control flow and data never depend on placement, so the store
keeps each task's reference stream as (region, offset, kind, node) and
relocates it by adding the regions' bases.  These tests pin that
invariance against the VM itself, at layouts drawn through the fuzz
generator's :class:`~repro.fuzz.generator.Draw` protocol:

* a relocated stream equals the VM's recorded ``(address, kind, node)``
  sequence event for event — under ``data:`` moves, color moves (pinned
  symbols) and fully drawn placements of fuzz-spec tasks;
* replaying it gives the VM's ``(accesses, misses, writebacks)`` under
  every replacement and write policy;
* a VM error is raised identically at two layouts;
* a moved task is analysed from the stored stream without a VM run, and
  equals a storeless cold analysis at the new layout.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import analyze_task
from repro.analysis.pipeline import place
from repro.analysis.store import ArtifactStore
from repro.analysis.wcet import measure_wcet_detailed
from repro.cache import CacheConfig, CacheState
from repro.fuzz.generator import RandomDraw, case_from_seed, rng_for
from repro.program import ProgramBuilder
from repro.program.layout import ProgramLayout, SystemLayout
from repro.vm import VMError, run_isolated
from repro.vm.machine import Machine
from repro.vm.trace import RelocatableTrace

from tests.conftest import make_streaming_program


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _pin_colors(d, layout: ProgramLayout, config: CacheConfig, names) -> dict:
    """Each array in *names* pinned to a drawn page color, in fresh index
    spans above everything *layout* occupies (the optimizer's recolor)."""
    span, band = config.index_span, config.color_bytes
    cursor = _align(max(hi for _, hi, _ in layout.intervals()), span)
    pins = {}
    for name in names:
        base = cursor + d.integer(0, config.page_colors - 1) * band
        pins[name] = base
        cursor = _align(base + layout.program.array(name).size_bytes, span)
    return pins


def drawn_layouts(d, layout: ProgramLayout, config: CacheConfig) -> dict:
    """A ``data:`` move, a color move and a fully drawn placement."""
    program = layout.program
    names = list(program.arrays)
    data_move = ProgramLayout(
        program,
        code_base=layout.code_base,
        data_base=layout.data_end + d.integer(1, 64) * 4,
    )
    color_move = ProgramLayout(
        program,
        code_base=layout.code_base,
        data_base=layout.data_base,
        symbol_overrides=_pin_colors(d, layout, config, [d.choice(names)]),
    )
    code_base = d.integer(0, 1 << 16)  # not even instruction aligned
    packed = ProgramLayout(
        program,
        code_base=code_base,
        data_base=code_base + layout.code_size + d.integer(0, 512),
        data_alignment=d.choice((4, 16, 64)),
    )
    pinned = [name for name in names if d.boolean()]
    drawn = ProgramLayout(
        program,
        code_base=packed.code_base,
        data_base=packed.data_base,
        data_alignment=packed.data_alignment,
        symbol_overrides=_pin_colors(d, packed, config, pinned),
    )
    return {"data": data_move, "color": color_move, "drawn": drawn}


def _config(spec) -> CacheConfig:
    cache = spec.cache
    return CacheConfig(
        cache.num_sets, cache.ways, cache.line_size, cache.miss_penalty,
        policy=cache.policy, write_back=cache.write_back,
    )


def _event_tuples(recorder) -> list:
    return [(e.address, e.kind, e.node) for e in recorder.events]


@pytest.mark.parametrize("index", range(6))
def test_relocated_stream_equals_the_vm_trace(index):
    spec = case_from_seed(31, index)
    config = _config(spec)
    placed = place(spec)
    d = RandomDraw(rng_for(97, index))
    for name in placed.order:
        home = placed.layouts[name]
        scenarios = placed.scenarios[name]
        _, recorded = measure_wcet_detailed(home, scenarios, config)
        streams = {
            scenario: RelocatableTrace.split(run.recorder, home)
            for scenario, run in recorded.items()
        }
        for scenario, (stream, columns) in streams.items():
            # The placed columns of the same pass are the recording itself.
            assert _event_tuples(columns.expand()) == _event_tuples(
                recorded[scenario].recorder
            )
        for move, layout in drawn_layouts(d, home, config).items():
            _, runs = measure_wcet_detailed(layout, scenarios, config)
            for scenario, run in runs.items():
                stream, _ = streams[scenario]
                relocated = stream.relocate(layout.region_bases())
                assert _event_tuples(relocated.expand()) == _event_tuples(
                    run.recorder
                ), f"{name}/{scenario} differs after a {move} move"
                assert RelocatableTrace.split(run.recorder, layout)[0] == stream
                assert run.base_cycles == recorded[scenario].base_cycles


@pytest.mark.parametrize("write_back", [False, True])
@pytest.mark.parametrize("policy", ["lru", "fifo", "plru"])
def test_relocated_replay_matches_vm_counts(policy, write_back):
    for index in range(3):
        spec = case_from_seed(37, index)
        config = replace(_config(spec), policy=policy, write_back=write_back)
        placed = place(spec)
        d = RandomDraw(rng_for(41, index))
        for name in placed.order:
            home = placed.layouts[name]
            scenarios = placed.scenarios[name]
            _, recorded = measure_wcet_detailed(home, scenarios, config)
            for layout in drawn_layouts(d, home, config).values():
                _, runs = measure_wcet_detailed(layout, scenarios, config)
                for scenario, run in runs.items():
                    stream, _ = RelocatableTrace.split(
                        recorded[scenario].recorder, home
                    )
                    cache = CacheState(config)
                    stream.relocate(layout.region_bases()).replay(cache)
                    stats = cache.stats
                    assert (
                        stats.hits + stats.misses, stats.misses, stats.writebacks
                    ) == (run.accesses, run.misses, run.writebacks)


def _overrunning_program():
    b = ProgramBuilder("overrun")
    table = b.array("table", words=4)
    b.array("pad", words=8)
    with b.loop(6) as i:
        b.load("v", table, index=i)
    return b.build()


def _two_layouts(program):
    first = SystemLayout().place(program)
    second = ProgramLayout(
        program,
        code_base=0x9104,
        data_base=0xA000,
        symbol_overrides={"pad": 0xC040} if "pad" in program.arrays else {},
    )
    return first, second


def _vm_error(layout, max_steps=10_000_000) -> str:
    config = CacheConfig(num_sets=8, ways=2, line_size=16, miss_penalty=20)
    with pytest.raises(VMError) as caught:
        run_isolated(layout, CacheState(config), max_steps=max_steps)
    return str(caught.value)


class TestVMErrorsArePlacementFree:
    def test_out_of_bounds_message_is_identical_at_two_layouts(self):
        first, second = _two_layouts(_overrunning_program())
        message = _vm_error(first)
        assert "out of bounds for 'table'" in message
        assert _vm_error(second) == message

    def test_step_cap_message_is_identical_at_two_layouts(self):
        first, second = _two_layouts(make_streaming_program("capped", 16, 2))
        message = _vm_error(first, max_steps=50)
        assert "exceeded 50 steps" in message
        assert _vm_error(second, max_steps=50) == message

    def test_a_failed_run_stores_no_trace(self, tiny_cache_config):
        first, second = _two_layouts(_overrunning_program())
        store = ArtifactStore(directory=None)
        messages = []
        for layout in (first, second):
            with pytest.raises(VMError) as caught:
                analyze_task(layout, {"s": {}}, tiny_cache_config, store=store)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert store.hits == 0
        assert store.misses_by_kind["trace"] == 2


def test_moved_task_is_analysed_without_the_vm(monkeypatch, tiny_cache_config):
    program = make_streaming_program("moved", words=24, reps=2)
    scenarios = {"s": {"data": list(range(24))}}
    home = SystemLayout().place(program)
    store = ArtifactStore(directory=None)
    analyze_task(home, scenarios, tiny_cache_config, store=store)

    runs = []
    raw_run = Machine.run

    def counted_run(self, *args, **kwargs):
        runs.append(self.program.name)
        return raw_run(self, *args, **kwargs)

    d = RandomDraw(rng_for(43, 0))
    for move, layout in drawn_layouts(d, home, tiny_cache_config).items():
        monkeypatch.setattr(Machine, "run", counted_run)
        warm = analyze_task(layout, scenarios, tiny_cache_config, store=store)
        monkeypatch.setattr(Machine, "run", raw_run)
        assert runs == [], f"a {move} move re-ran the VM"
        cold = analyze_task(layout, scenarios, tiny_cache_config)
        assert warm.wcet.cycles == cold.wcet.cycles
        assert warm.wcet.per_scenario_cycles == cold.wcet.per_scenario_cycles
        assert warm.aggregate.node_refs == cold.aggregate.node_refs
        assert warm.dataflow == cold.dataflow
        assert warm.useful == cold.useful
        assert warm.path_profiles == cold.path_profiles
        # The lazy trace view relocates to this layout on first read.
        assert _event_tuples(warm.wcet.traces["s"]) == _event_tuples(
            cold.wcet.traces["s"]
        )
