"""Engineering benchmarks: simulator and collection throughput.

Not a paper figure — these track the substrate's own performance so
regressions in the interpreter or the backtracking hot paths are caught.

The MCF speedup benchmark measures the engine ladder (reference → fast)
on a warmed steady-state window, timing the engines in alternating
windows, and is gated against the committed baseline in
``BENCH_throughput.json``: the fast engine must stay >= 2x over the
reference engine, and the ratio may not regress more than 10% below its
committed value (a ratio is used because absolute Mips depend on the
host).  Set ``REPRO_BENCH_WRITE=1`` to rewrite the baseline after
an intentional change; set ``REPRO_BENCH_OUT=<path>`` to dump the fresh
measurement (CI uploads it as an artifact and prints it in the job
summary).
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro import build_executable, scaled_config
from repro.collect.backtrack import apropos_backtrack
from repro.collect.collector import CollectConfig, collect
from repro.kernel.process import Process
from repro.machine.counters import EVENTS

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

SPIN = """
long main(long *input, long n) {
    long i; long s;
    s = 0;
    for (i = 0; i < 200000; i++)
        s = s + (i ^ (s >> 3)) + (i & 15);
    return s & 255;
}
"""

MEMWALK = """
long main(long *input, long n) {
    long *a; long i; long j; long s;
    a = (long *) malloc(262144);
    s = 0;
    for (j = 0; j < 8; j++)
        for (i = 0; i < 32768; i = i + 8)
            s = s + a[i];
    return s & 255;
}
"""


def test_interpreter_throughput_alu(benchmark):
    program = build_executable(SPIN)

    def run():
        process = Process(program, scaled_config())
        process.run(max_instructions=20_000_000)
        return process.machine.cpu.instr_count

    instructions = benchmark.pedantic(run, rounds=2, iterations=1)
    assert instructions > 1_000_000


def test_interpreter_throughput_memory(benchmark):
    program = build_executable(MEMWALK)

    def run():
        process = Process(program, scaled_config())
        process.run(max_instructions=20_000_000)
        return process.machine.stats()

    stats = benchmark.pedantic(run, rounds=2, iterations=1)
    assert stats.ec_refs > 10_000


def test_backtracking_throughput(benchmark):
    """The per-signal cost of the apropos search."""
    program = build_executable(MEMWALK)
    process = Process(program, scaled_config())
    process.run(max_instructions=20_000_000)
    cpu = process.machine.cpu
    func = program.function("main")
    regs = [0] * 32
    event = EVENTS["ecrm"]
    trap_pcs = list(range(func.start + 40, func.end - 4, 4))

    def run():
        found = 0
        for trap_pc in trap_pcs:
            result = apropos_backtrack(cpu.code, cpu.text_base, trap_pc,
                                       event, regs)
            found += result.status == "found"
        return found

    found = benchmark(run)
    assert found > 0


def test_profiled_run_overhead(benchmark):
    """Collection (handlers + backtracking) must not slow the simulation
    by more than ~3x."""
    import time

    program = build_executable(MEMWALK)

    start = time.perf_counter()
    process = Process(program, scaled_config())
    process.run(max_instructions=20_000_000)
    plain_seconds = time.perf_counter() - start

    def profiled():
        cfg = CollectConfig(clock_profiling=True, clock_interval=4999,
                            counters=["+ecstall,997", "+ecrm,97"])
        return collect(program, scaled_config(), cfg)

    start = time.perf_counter()
    experiment = benchmark.pedantic(profiled, rounds=1, iterations=1)
    profiled_seconds = time.perf_counter() - start
    assert experiment.hwc_events
    assert profiled_seconds < max(plain_seconds, 0.05) * 4


# --------------------------------------------------- MCF engine speedup gate

def _mcf_run(engine: str, warmup: int = 1_000_000,
             budget: int = 2_000_000):
    """Steady-state interpreter throughput (million instructions per host
    second) on the fixed-seed MCF workload.

    The first ``warmup`` instructions are excluded from the timed window
    so cold caches don't dominate a 2M-instruction measurement.
    """
    from repro.mcf.instance import encode_instance, generate_instance
    from repro.mcf.sources import LayoutVariant
    from repro.mcf.workload import build_mcf

    program = build_mcf(LayoutVariant.BASELINE)
    instance = generate_instance(trips=60, seed=7)
    process = Process(program, scaled_config(),
                      input_longs=encode_instance(instance))
    process.machine.cpu.engine = engine
    process.run(max_instructions=warmup)
    start = time.perf_counter()
    process.run(max_instructions=budget)  # budget is per run() call
    elapsed = time.perf_counter() - start
    executed = process.machine.cpu.instr_count - warmup
    assert executed == budget, f"run ended early at {executed + warmup}"
    return executed / elapsed / 1e6


#: the order the gate times its windows in: each engine's runs straddle
#: the other's, so host speed drifting over the measurement moves both
#: medians alike instead of the ratio
WINDOW_ORDER = ("reference", "fast", "fast", "reference")


def test_mcf_engine_speedup_vs_baseline():
    """Engine ladder gate: fast >= 2x reference (both measured on the
    same host in alternating windows, so the ratio is host-independent),
    with no >10% regression of the ratio against the committed
    baseline.  The ratio is median fast Mips over median reference
    Mips."""
    mips = {"fast": [], "reference": []}
    for engine in WINDOW_ORDER:
        mips[engine].append(_mcf_run(engine))
    fast_mips = statistics.median(mips["fast"])
    reference_mips = statistics.median(mips["reference"])
    speedup = fast_mips / reference_mips

    measurement = {
        "workload": "mcf trips=60 seed=7, 2M-instruction window "
                    "after 1M-instruction warmup",
        "fast_mips": round(fast_mips, 3),
        "reference_mips": round(reference_mips, 3),
        "speedup": round(speedup, 3),
    }

    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        baseline = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else {}
        baseline["last_run"] = measurement
        Path(out).write_text(json.dumps(baseline, indent=2) + "\n")
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        BENCH_FILE.write_text(
            json.dumps({"baseline": measurement}, indent=2) + "\n"
        )

    assert speedup >= 2.0, (
        f"fast engine only {speedup:.2f}x over reference "
        f"({fast_mips:.2f} vs {reference_mips:.2f} Mips)"
    )
    if BENCH_FILE.exists():
        baseline = json.loads(BENCH_FILE.read_text())["baseline"]
        floor = 0.9 * baseline["speedup"]
        assert speedup >= floor, (
            f"speedup regressed >10%: measured {speedup:.2f}x, committed "
            f"baseline {baseline['speedup']:.2f}x (floor {floor:.2f}x)"
        )


def test_engines_agree_on_architectural_state():
    """Cheap cross-check riding along with the benchmark: after the same
    budget, both engines sit at the same instruction count, cycles and
    register file."""
    from repro.mcf.instance import encode_instance, generate_instance
    from repro.mcf.sources import LayoutVariant
    from repro.mcf.workload import build_mcf

    program = build_mcf(LayoutVariant.BASELINE)
    instance = generate_instance(trips=20, seed=7)
    states = []
    for engine in ("fast", "reference"):
        process = Process(program, scaled_config(),
                          input_longs=encode_instance(instance))
        process.machine.cpu.engine = engine
        process.run(max_instructions=500_000)
        cpu = process.machine.cpu
        states.append((cpu.instr_count, cpu.cycles, cpu.pc, cpu.npc,
                       tuple(cpu.regs)))
    assert states[0] == states[1]
