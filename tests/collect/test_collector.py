"""Integration tests for the collector (collect tool)."""

import pytest

from repro import build_executable, tiny_config
from repro.collect.collector import CollectConfig, Collector, collect, parse_counter_requests
from repro.errors import CollectError

CACHE_STRESS = """
struct item { long key; long value; long pad1; long pad2; };
long main(long *input, long n) {
    struct item *arr;
    long i; long j; long s;
    arr = (struct item *) malloc(2048 * sizeof(struct item));
    s = 0;
    for (j = 0; j < 3; j++) {
        for (i = 0; i < 2048; i++)
            arr[i].key = i;
        /* separate read loop: the lines written above have long been
           evicted from the tiny caches, so these are genuine read misses */
        for (i = 0; i < 2048; i++)
            s = s + arr[i].value;
    }
    return s & 255;
}
"""


@pytest.fixture(scope="module")
def program():
    return build_executable(CACHE_STRESS, name="stress")


class TestCounterParsing:
    def test_two_counters_assigned_registers(self):
        specs = parse_counter_requests(["+ecstall,97", "+ecrm,53"])
        assert {s.register for s in specs} == {0, 1}
        assert specs[0].event.name == "ecstall"

    def test_paper_experiment_pairs_parse(self):
        for pair in (["+ecstall,lo", "+ecrm,on"], ["+ecref,on", "+dtlbm,on"]):
            specs = parse_counter_requests(pair)
            assert len(specs) == 2

    def test_conflicting_registers_rejected(self):
        with pytest.raises(CollectError):
            parse_counter_requests(["+ecstall,on", "+ecref,on"])  # both PIC0-only

    def test_three_counters_rejected(self):
        with pytest.raises(CollectError):
            parse_counter_requests(["cycles", "insts", "ecrm"])

    def test_unknown_counter_rejected(self):
        with pytest.raises(CollectError):
            parse_counter_requests(["+bogus,on"])


class TestCollection:
    def test_clock_only(self, program):
        cfg = CollectConfig(clock_profiling=True, clock_interval=499, counters=[])
        exp = collect(program, tiny_config(), cfg)
        assert exp.clock_events
        assert not exp.hwc_events
        assert exp.info.clock_interval_cycles == 499

    def test_hwc_events_recorded_with_backtracking(self, program):
        cfg = CollectConfig(
            clock_profiling=False, counters=["+ecstall,59", "+ecrm,31"]
        )
        exp = collect(program, tiny_config(), cfg)
        assert exp.hwc_events
        by_event = {e.event for e in exp.hwc_events}
        assert by_event == {"ecstall", "ecrm"}
        found = [e for e in exp.hwc_events if e.status == "found"]
        assert len(found) > 0.9 * len(exp.hwc_events)
        with_ea = [e for e in found if e.effective_address is not None]
        assert with_ea, "some effective addresses must be recovered"

    def test_backtracking_disabled_without_plus(self, program):
        cfg = CollectConfig(clock_profiling=False, counters=["ecrm,31"])
        exp = collect(program, tiny_config(), cfg)
        assert exp.hwc_events
        assert all(e.status == "disabled" for e in exp.hwc_events)
        assert all(e.candidate_pc is None for e in exp.hwc_events)

    def test_event_weights_match_interval(self, program):
        cfg = CollectConfig(clock_profiling=False, counters=["+ecrm,31"])
        exp = collect(program, tiny_config(), cfg)
        assert all(e.weight == 31 for e in exp.hwc_events)

    def test_sampled_counts_approximate_ground_truth(self, program):
        cfg = CollectConfig(clock_profiling=False, counters=["+ecrm,31"])
        exp = collect(program, tiny_config(), cfg)
        sampled = sum(e.weight for e in exp.hwc_events)
        truth = exp.info.totals["ec_read_misses"]
        assert truth > 0
        assert abs(sampled - truth) / truth < 0.05

    def test_info_records_run_facts(self, program):
        cfg = CollectConfig(clock_profiling=True, counters=["+ecrm,31"])
        exp = collect(program, tiny_config(), cfg)
        assert exp.info.exit_code == exp.info.exit_code
        assert exp.info.instructions > 0
        assert exp.info.totals["cycles"] > 0
        assert [s[0] for s in exp.info.segments] == [
            "text", "data", "input", "heap", "stack",
        ]
        assert exp.info.counters[0]["name"] == "ecrm"

    def test_callstacks_recorded(self, program):
        cfg = CollectConfig(clock_profiling=True, clock_interval=499, counters=[])
        exp = collect(program, tiny_config(), cfg)
        # main is called from _start, so stacks have at least one frame
        assert any(len(e.callstack) >= 1 for e in exp.clock_events)

    def test_heap_page_bytes_passed_through(self, program):
        cfg = CollectConfig(clock_profiling=False, counters=["+dtlbm,13"])
        exp_small = collect(program, tiny_config(), cfg)
        exp_large = collect(
            program, tiny_config(), cfg, heap_page_bytes=64 * 1024
        )
        assert exp_large.info.heap_page_bytes == 64 * 1024
        assert (
            exp_large.info.totals["dtlb_misses"]
            < exp_small.info.totals["dtlb_misses"]
        )

    def test_log_lines_written(self, program):
        cfg = CollectConfig(clock_profiling=False, counters=["+ecrm,31"])
        exp = collect(program, tiny_config(), cfg)
        text = "\n".join(exp.log_lines)
        assert "collect: starting" in text
        assert "exited" in text

    def test_deterministic_given_same_seed(self, program):
        cfg = CollectConfig(clock_profiling=False, counters=["+ecrm,31"])
        exp1 = collect(program, tiny_config(seed=5), cfg)
        exp2 = collect(program, tiny_config(seed=5), cfg)
        assert [e.trap_pc for e in exp1.hwc_events] == [
            e.trap_pc for e in exp2.hwc_events
        ]

    def test_different_seed_changes_skid_pattern(self, program):
        cfg = CollectConfig(clock_profiling=False, counters=["+ecref,31"])
        exp1 = collect(program, tiny_config(seed=5), cfg)
        exp2 = collect(program, tiny_config(seed=6), cfg)
        assert [e.trap_pc for e in exp1.hwc_events] != [
            e.trap_pc for e in exp2.hwc_events
        ]


class TestBudgetAndStack:
    def test_custom_stack_size(self, program):
        from repro.kernel.loader import load_program

        image = load_program(program, tiny_config(), stack_bytes=256 * 1024)
        stack = image.machine.memory.find_segment("stack")
        assert stack.size >= 256 * 1024
