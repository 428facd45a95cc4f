"""The folding reducer against a per-event reference.

The reducer folds each journal into weight sums per distinct attribution
key and attributes each key once (DESIGN §8).  :class:`PerEventReducer`
keeps the loop it replaced, which attributed every event on its own; it
lives here only, as the reference the fold must match byte for byte on
every branch of the attribution.
"""

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro import build_executable, tiny_config
from repro.analyze import model
from repro.analyze.metrics import metric_sort_key
from repro.analyze.reduce import UNMAPPED_SEGMENT, _Reducer, reduce_path
from repro.collect.collector import CollectConfig, collect
from repro.collect.experiment import ClockEvent, Experiment, HwcEvent
from repro.compiler.codegen import compile_module
from repro.compiler.program import link
from repro.compiler.runtime import runtime_module
from repro.config import scaled_config
from repro.isa.instructions import is_store

MAIN_SRC = """
struct rec { long a; long b; long pad1; long pad2; };
long total;
long reader(struct rec *arr, long n) {
    long i; long s;
    s = 0;
    for (i = 0; i < n; i++)
        s = s + arr[i].b;
    total = total + s;
    return s;
}
long main(long *input, long n) {
    struct rec *arr;
    long i; long j; long s;
    arr = (struct rec *) malloc(256 * sizeof(struct rec));
    s = 0;
    for (j = 0; j < 3; j++) {
        for (i = 0; i < 256; i++) arr[i].a = i;
        s = s + reader(arr, 256);
    }
    return s & 255;
}
"""

#: a module with memop info but no branch-target table: (Unverifiable)
HELPER_SRC = """
long helper(long *p) {
    p[1] = p[0] + 1;
    return p[2];
}
"""

SHARING_SRC = """
struct counters { long a; long b; };
struct counters shared;
long worker_a(long n) {
    long i;
    for (i = 0; i < n; i++) { shared.a = shared.a + 1; }
    return shared.a;
}
long worker_b(long n) {
    long i;
    for (i = 0; i < n; i++) { shared.b = shared.b + 1; }
    return shared.b;
}
long main(long *input, long n) {
    long t1; long t2;
    t1 = spawn(worker_a, 3000);
    t2 = spawn(worker_b, 3000);
    print_long(join(t1) + join(t2));
    return 0;
}
"""

LINE_BYTES = 64
SEGMENTS = [["data", 0x200000, 0x1000, 8192], ["heap", 0x400000, 0x8000, 65536]]


class PerEventReducer(_Reducer):
    """The reducer before folding: every event walks the attribution on
    its own, in stream order, and feeds every table at once (its own
    :meth:`_attribute`, not the reducer's grouped one)."""

    def _attribute(self, metric_id, weight, pc, callstack, artificial=False):
        reduced = self.reduced
        reduced.total.add(metric_id, weight)
        record = reduced.record_pc(pc)
        record.metrics.add(metric_id, weight)
        if artificial:
            record.is_branch_target_artifact = True
        func_name = self._function_name(pc)
        leaf = func_name or f"<unknown 0x{pc:x}>"
        reduced.functions[leaf].add(metric_id, weight)
        instr = self.program.instr_at(pc)
        if instr is not None and func_name is not None:
            reduced.lines[(func_name, instr.line)].add(metric_id, weight)
        chain = []
        for call_site in callstack:
            caller = self._function_name(call_site)
            chain.append(caller or f"<unknown 0x{call_site:x}>")
        chain.append(leaf)
        for name in dict.fromkeys(chain):
            reduced.functions_incl[name].add(metric_id, weight)
        for caller, callee in zip(chain, chain[1:]):
            reduced.caller_callee[(caller, callee)].add(metric_id, weight)

    def run(self):
        experiment = self.experiment
        info = experiment.info
        reduced = self.reduced
        clock_weight = info.clock_interval_cycles
        for event in experiment.iter_clock_events():
            self._attribute("user_cpu", clock_weight, event.pc, event.callstack)
            if self.multi_core:
                reduced.threads[event.thread].add("user_cpu", clock_weight)
        for event in experiment.iter_hwc_events():
            self._reduce_event(event)
        reduced.machine_totals = dict(info.totals)
        reduced.segments = [tuple(seg) for seg in info.segments]
        reduced.allocations = [tuple(a) for a in info.allocations]
        reduced.counter_info = list(info.counters)
        reduced.incomplete = experiment.incomplete
        reduced.incomplete_reason = experiment.incomplete_reason()
        reduced.metric_ids = sorted(set(reduced.total), key=metric_sort_key)
        return reduced

    def _reduce_event(self, event):
        metric_id = event.event
        weight = float(event.weight) * event.scale
        program = self.program
        reduced = self.reduced
        if self.multi_core:
            reduced.threads[event.thread].add(metric_id, weight)
        if event.latency is not None:
            reduced.latency_samples[metric_id].append((event.latency, weight))
        if event.status == "disabled":
            self._attribute(metric_id, weight, event.trap_pc, event.callstack)
            return
        if event.status != "found" or event.candidate_pc is None:
            self._attribute(metric_id, weight, event.trap_pc, event.callstack)
            self._account_data_object(metric_id, weight,
                                      model.UNRESOLVABLE, None)
            return
        candidate = event.candidate_pc
        if program.has_branch_info(candidate):
            blocker = self._branch_target_in(candidate, event.trap_pc)
            if blocker is not None:
                self._attribute(metric_id, weight, blocker, event.callstack,
                                artificial=True)
                self._account_data_object(metric_id, weight,
                                          model.UNRESOLVABLE, None)
                return
            self._attribute(metric_id, weight, candidate, event.callstack)
            object_class, key = self._data_object_for(candidate)
        elif program.hwcprof_enabled(candidate):
            self._attribute(metric_id, weight, candidate, event.callstack)
            object_class, key = model.UNVERIFIABLE, None
        else:
            self._attribute(metric_id, weight, candidate, event.callstack)
            object_class, key = model.UNASCERTAINABLE, None
        self._account_data_object(metric_id, weight, object_class, key)
        ea = event.effective_address
        if ea is not None:
            reduced.address_samples[metric_id].append((ea, weight))
            line_base = (ea // self.line_bytes) * self.line_bytes
            reduced.cache_lines[line_base].add(metric_id, weight)
            segment, page_base = self._page_of(ea)
            reduced.pages[(segment, page_base)].add(metric_id, weight)
            label = (f"{object_class}.{key.member}" if key is not None
                     else object_class)
            reduced.cache_line_objects[(line_base, label)].add(
                metric_id, weight)
            reduced.page_objects[(segment, page_base, label)].add(
                metric_id, weight)
            if self.multi_core:
                instr = program.instr_at(candidate)
                if instr is not None and is_store(instr):
                    reduced.cache_line_writers[(line_base, event.thread)].add(
                        metric_id, weight)
        record = reduced.pcs.get(candidate)
        if record is not None and not record.data_object:
            object_class, key = self._data_object_for(candidate)
            record.data_object = object_class
            if key is not None:
                record.member = key.member


def _payloads(experiment):
    """(fold, per-event reference) payload bytes of one experiment."""
    fold = _Reducer(experiment).run()
    reference = PerEventReducer(experiment).run()
    return json.dumps(fold.to_payload()), json.dumps(reference.to_payload())


# ------------------------------------------------------------- the program

def _program():
    helper = compile_module(HELPER_SRC, name="helper", hwcprof=True)
    helper.has_branch_info = False
    return link([compile_module(MAIN_SRC, name="main", hwcprof=True), helper,
                 runtime_module()])


PROGRAM = _program()


def _pcs(name):
    func = PROGRAM.function(name)
    return list(range(func.start, func.end, 4))


def _memops(name, store=None):
    return [pc for pc in _pcs(name)
            if PROGRAM.instr_at(pc).memop is not None
            and (store is None or is_store(PROGRAM.instr_at(pc)) == store)]


#: a candidate pool over every module kind, plus a PC outside the text
CANDIDATES = sorted(set(
    _memops("reader") + _memops("main")[:6] + _pcs("main")[::7]
    + _pcs("helper")[:6] + _pcs("zero_memory")[:4]
    + [PROGRAM.text_base - 64]
))
CALL_SITES = [_pcs("main")[3], _pcs("reader")[2], _pcs("zero_memory")[1],
              PROGRAM.text_base - 64]
ADDRESSES = ([seg[1] + 8 * k for seg in SEGMENTS for k in (0, 1, 9, 70, 300)]
             + [0x10, 0x7FFFF000])


def _experiment(clock_events, hwc_events, cores=1, clock_interval=211):
    experiment = Experiment("synthetic")
    experiment.program = PROGRAM
    info = experiment.info
    info.clock_hz = 1e8
    info.clock_interval_cycles = clock_interval
    info.ecache_line_bytes = LINE_BYTES
    info.cores = cores
    info.segments = [list(seg) for seg in SEGMENTS]
    experiment.clock_events = list(clock_events)
    experiment.hwc_events = list(hwc_events)
    return experiment


def _hwc(candidate, trap_pc, status="found", event="ecrm", weight=13,
         ea=None, callstack=(), thread=0, latency=None, scale=1):
    return HwcEvent(counter=0, event=event, weight=weight, trap_pc=trap_pc,
                    candidate_pc=candidate, effective_address=ea,
                    status=status, ea_reason="", cycle=0, callstack=callstack,
                    latency=latency, scale=scale, core=thread, thread=thread)


# --------------------------------------------------------------- strategies

_callstacks = st.lists(st.sampled_from(CALL_SITES), max_size=3).map(tuple)
_threads = st.integers(0, 2)


@st.composite
def _hwc_events(draw):
    candidate = draw(st.none() | st.sampled_from(CANDIDATES))
    anchor = candidate if candidate is not None else draw(
        st.sampled_from(CANDIDATES))
    return _hwc(
        candidate,
        trap_pc=anchor + 4 * draw(st.integers(0, 6)),
        status=draw(st.sampled_from(["found", "found", "not_found",
                                     "disabled"])),
        event=draw(st.sampled_from(["ecrm", "ecstall", "ldlat"])),
        weight=draw(st.integers(1, 1000)),
        ea=draw(st.none() | st.sampled_from(ADDRESSES)),
        callstack=draw(_callstacks),
        thread=draw(_threads),
        latency=draw(st.none() | st.integers(1, 300)),
        scale=draw(st.sampled_from([1, 1, 4])),
    )


_clock_events = st.builds(
    lambda pc, callstack, thread: ClockEvent(pc, 0, callstack, thread, thread),
    st.sampled_from(CANDIDATES), _callstacks, _threads,
)


class TestFoldMatchesPerEvent:
    @settings(max_examples=80, deadline=None)
    @given(clock=st.lists(_clock_events, max_size=40),
           hwc=st.lists(_hwc_events(), max_size=60),
           cores=st.sampled_from([1, 2]),
           clock_interval=st.integers(1, 10_000))
    def test_random_experiments(self, clock, hwc, cores, clock_interval):
        fold, reference = _payloads(
            _experiment(clock, hwc, cores, clock_interval))
        assert fold == reference

    def test_one_experiment_reaches_every_branch(self):
        target = min(t for t in PROGRAM.branch_targets
                     if PROGRAM.function("reader").start < t
                     < PROGRAM.function("reader").end)
        load = _memops("reader", store=False)[0]
        store = _memops("main", store=True)[0]
        helper = _memops("helper")[0]
        runtime = _pcs("zero_memory")[2]
        heap = SEGMENTS[1][1]
        stack = (CALL_SITES[0], CALL_SITES[1])
        hwc = [
            _hwc(load, load + 4, status="disabled", callstack=stack),
            _hwc(None, load + 8, status="not_found"),
            _hwc(load, load + 8, status="not_found"),
            _hwc(target - 8, target - 8, ea=heap),        # not blocked
            _hwc(target - 8, target, ea=heap),            # same candidate, blocked
            _hwc(load, load, ea=heap + 8, callstack=stack, latency=40),
            _hwc(load, load, ea=0x10, scale=4),            # unmapped
            _hwc(store, store, ea=heap + 16, thread=1),    # writer
            _hwc(store, store, ea=heap + 24, thread=2),    # writer
            _hwc(helper, helper + 4, ea=heap),             # Unverifiable
            _hwc(runtime, runtime + 4, ea=heap + 72),      # Unascertainable
            _hwc(load, load, ea=heap + 8, callstack=stack, latency=40),
        ]
        clock = [ClockEvent(load, 0, stack, 1, 1),
                 ClockEvent(store, 0, (), 2, 2),
                 ClockEvent(load, 0, stack, 1, 1)]
        experiment = _experiment(clock, hwc, cores=2)
        reduced = _Reducer(experiment).run()
        objects = reduced.data_objects
        for kind in (model.UNRESOLVABLE, model.UNVERIFIABLE,
                     model.UNASCERTAINABLE):
            assert objects[kind]["ecrm"] > 0, kind
        assert reduced.pcs[target].is_branch_target_artifact
        assert reduced.data_members
        assert reduced.latency_samples["ecrm"] == [(40, 13.0), (40, 13.0)]
        assert any(seg == UNMAPPED_SEGMENT for seg, _base in reduced.pages)
        assert reduced.total["ecrm"] == 13 * (len(hwc) - 1) + 13 * 4
        assert {1, 2} <= {thread for _line, thread in reduced.cache_line_writers}
        assert reduced.threads[1]["user_cpu"] == 2 * 211
        fold, reference = _payloads(experiment)
        assert fold == reference


    def test_many_pcs_under_one_callstack(self):
        """Every PC of ``reader`` ticks and traps under one call path, so
        the call-path tables get one group per metric and leaf function;
        ``helper`` and the runtime appear only in the counter phase, and
        a recursion-like chain repeats a caller."""
        stack = (CALL_SITES[0], CALL_SITES[1])
        repeated = (CALL_SITES[0], CALL_SITES[1], CALL_SITES[0])
        heap = SEGMENTS[1][1]
        clock = [ClockEvent(pc, 0, stack) for pc in _pcs("reader")] * 2
        clock += [ClockEvent(pc, 0, repeated) for pc in _pcs("main")[:5]]
        hwc = [_hwc(pc, pc, ea=heap + 8 * n, callstack=stack)
               for n, pc in enumerate(_memops("reader"))]
        hwc += [_hwc(pc, pc + 4, callstack=stack, event="ecstall")
                for pc in _pcs("helper") + _pcs("zero_memory")[:4]]
        hwc += [_hwc(None, pc, status="not_found", callstack=repeated)
                for pc in _pcs("reader")[:6]]
        experiment = _experiment(clock, hwc)
        reduced = _Reducer(experiment).run()
        incl = list(reduced.functions_incl)
        assert incl.index("helper") > incl.index("reader")
        assert reduced.caller_callee[("main", "main")]["user_cpu"] > 0
        fold, reference = _payloads(experiment)
        assert fold == reference


class TestFoldOnCollectedRuns:
    def test_saved_single_core_run(self, tmp_path):
        program = build_executable(MAIN_SRC)
        config = CollectConfig(clock_profiling=True, clock_interval=211,
                               counters=["+ecstall,59", "+ecrm,13"])
        directory = collect(program, tiny_config(), config).save(
            tmp_path / "run")
        streamed = Experiment.open_streaming(directory)
        fold, reference = _payloads(streamed)
        assert fold == reference
        assert json.dumps(reduce_path(directory, use_cache=False)
                          .to_payload()) == fold

    def test_two_core_run_with_writers(self):
        program = build_executable(SHARING_SRC, name="sharing")
        machine = dataclasses.replace(scaled_config(), cores=2,
                                      thread_quantum=400)
        config = CollectConfig(clock_profiling=True, clock_interval=211,
                               counters=["+cohm,7", "+ecstall,53"])
        experiment = collect(program, machine, config)
        fold, reference = _payloads(experiment)
        assert fold == reference
        assert json.loads(fold)["cache_line_writers"]

