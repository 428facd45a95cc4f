"""Property harness for the attribution oracle (ISSUE: ground-truth
validation of the apropos backtracking search).

Every test here drives a real collect run, joins the profile journal
against the simulator's truth side channel (``truth.jsonl``) and asserts
on the classification:

* the join itself is total — 100% of overflow events land in exactly one
  of the five classes, with **zero unexplained rows** (the acceptance
  criterion for the oracle subsystem);
* per-counter exact-PC floors hold (dtlbm is precise; the skid-0/1
  counters are nearly so; the skiddy ecref keeps the PC on strided code);
* ``spurious_not_found`` is zero everywhere — the oracle's distilled
  regression gate for the unclamped-window bug (a trap skidding past the
  end of text used to scan out-of-range indices and report a spurious
  NOT_FOUND even though the trigger sat inside the clamped window);
* each of the five classes is actually reachable, so the taxonomy is
  exercised rather than vacuous.

The simulator is deterministic, so every rate below is exactly
reproducible; floors keep slack for legitimate codegen/interval changes.
"""

import pytest

from repro import build_executable, tiny_config
from repro.analyze.oracle import (
    CLASSES,
    CORRECT_UNKNOWN,
    EXACT,
    SPURIOUS_UNKNOWN,
    WRONG_EA,
    WRONG_PC,
    oracle_experiment,
    oracle_experiments,
    render_oracle,
)
from repro.collect.collector import CollectConfig, collect
from repro.faults import FaultPlan
from tests.fuzz import INPUT_LEN, generate_source

SRC = """
struct rec { long a; long b; long c; long d; };
long work(struct rec *arr, long n) {
    long i; long s;
    s = 0;
    for (i = 0; i < n; i++) {
        s = s + arr[i].a * 3;
        s = s - arr[i].c;
    }
    return s;
}
long main(long *input, long n) {
    struct rec *arr;
    long j; long s;
    arr = (struct rec *) malloc(2048 * sizeof(struct rec));
    s = 0;
    for (j = 0; j < 4; j++)
        s = s + work(arr, 2048);
    return s & 255;
}
"""

#: SRC with the accesses fused into back-to-back loads: the paper's worst
#: case, where the backward search can find the *later* load (wrong-pc)
ADJACENT_SRC = SRC.replace(
    "s = s + arr[i].a * 3;\n        s = s - arr[i].c;",
    "s = s + arr[i].a + arr[i].c + arr[i].d;",
)

ALL_COUNTERS = ["+dcrm,17", "+dtlbm,7", "+ecrm,13", "+ecref,31", "+ecstall,59"]

FUZZ_INPUT = [((k * 37) ^ 11) & 1023 for k in range(INPUT_LEN)]


def _run_oracle(counter, source=SRC, fault_plan=None, input_longs=(),
                name="oracle-run", machine_config=None):
    """Collect one run and join it against its truth journal."""
    program = build_executable(source, name=name)
    experiment = collect(
        program,
        machine_config if machine_config is not None else tiny_config(),
        CollectConfig(counters=[counter], name=name),
        input_longs=input_longs,
        fault_plan=fault_plan,
    )
    return oracle_experiment(experiment), experiment


@pytest.fixture(scope="module")
def strided():
    """counter text -> (report, experiment) on the strided-struct loop."""
    return {c: _run_oracle(c) for c in ALL_COUNTERS}


class TestJoinIsTotal:
    @pytest.mark.parametrize("counter", ALL_COUNTERS)
    def test_zero_unexplained_and_every_event_classified(self, strided, counter):
        report, _ = strided[counter]
        assert report.unexplained == []
        assert report.missing_truth == []
        assert report.total_events > 0
        assert report.classified == report.total_events

    @pytest.mark.parametrize("counter", ALL_COUNTERS)
    def test_truth_and_profile_journals_pair_one_to_one(self, strided, counter):
        _, experiment = strided[counter]
        hwc = list(experiment.iter_hwc_events())
        truth = list(experiment.iter_truth_events())
        assert len(hwc) == len(truth)
        for h, t in zip(hwc, truth):
            assert (h.trap_pc, h.cycle, h.event, h.coalesced) == (
                t.trap_pc, t.cycle, t.event, t.coalesced)

    @pytest.mark.parametrize("counter", ALL_COUNTERS)
    def test_no_spurious_not_found(self, strided, counter):
        """Regression gate for the unclamped backtracking window: a NOT_FOUND
        whose true trigger sat inside the clamped window is a search bug."""
        report, _ = strided[counter]
        for tally in report.by_event.values():
            assert tally.spurious_not_found == 0


class TestExactPcFloors:
    def test_precise_dtlbm_is_fully_exact(self, strided):
        report, _ = strided["+dtlbm,7"]
        tally = report.counts("dtlbm")
        assert tally.exact_pc_rate == 1.0
        assert tally.classes[EXACT] == tally.events

    @pytest.mark.parametrize("counter,event",
                             [("+dcrm,17", "dcrm"), ("+ecrm,13", "ecrm"),
                              ("+ecstall,59", "ecstall")])
    def test_short_skid_counters_stay_nearly_exact(self, strided, counter, event):
        report, _ = strided[counter]
        tally = report.counts(event)
        assert tally.exact_pc_rate >= 0.95
        assert tally.rate(EXACT) >= 0.75
        assert tally.rate(WRONG_EA) == 0.0

    def test_skiddy_ecref_keeps_the_pc_but_loses_the_address(self, strided):
        """The 2-5 instruction ecref skid cannot cross another memop on
        strided code (PC stays right), but it crosses writes to the address
        register almost every time — the oracle shows those clobber reports
        split between honest losses and conservative ones (the register was
        recomputed to the same value; see DESIGN.md §9)."""
        report, _ = strided["+ecref,31"]
        tally = report.counts("ecref")
        assert tally.exact_pc_rate >= 0.95
        assert tally.rate(WRONG_EA) == 0.0
        unknown = tally.rate(SPURIOUS_UNKNOWN) + tally.rate(CORRECT_UNKNOWN)
        assert unknown >= 0.90


class TestFiveClassCoverage:
    def test_wrong_pc_reachable_on_adjacent_loads(self):
        report, _ = _run_oracle("+ecref,31", source=ADJACENT_SRC)
        assert report.unexplained == []
        assert report.counts("ecref").classes[WRONG_PC] > 0

    def test_wrong_ea_reachable_under_register_corruption(self):
        """A fault plan that clobbers delivered registers makes the search
        recompute the address from wrong values: candidate PC right,
        address silently wrong.  The truth row records the registers as
        mangled, so the honesty checks stay consistent."""
        plan = FaultPlan(seed=5, corrupt_regs_prob=1.0)
        report, _ = _run_oracle("+dtlbm,7", fault_plan=plan)
        assert report.unexplained == []
        tally = report.counts("dtlbm")
        assert tally.classes[WRONG_EA] > 0
        assert plan.stats["corrupted_snapshots"] > 0

    def test_disabled_backtracking_is_correct_unknown(self):
        """Without '+' the collector never searches; claiming nothing is
        honest by definition."""
        report, experiment = _run_oracle("ecrm,13")
        assert report.unexplained == []
        tally = report.counts("ecrm")
        assert tally.classes[CORRECT_UNKNOWN] == tally.events > 0
        assert all(h.status == "disabled"
                   for h in experiment.iter_hwc_events())

    def test_all_five_classes_observed(self, strided):
        """The taxonomy is live: across the harness's standard runs every
        class appears at least once."""
        seen = {c: 0 for c in CLASSES}
        reports = [strided[c][0] for c in ALL_COUNTERS]
        reports.append(_run_oracle("+ecref,31", source=ADJACENT_SRC)[0])
        plan = FaultPlan(seed=5, corrupt_regs_prob=1.0)
        reports.append(_run_oracle("+dtlbm,7", fault_plan=plan)[0])
        reports.append(_run_oracle("ecrm,13")[0])
        for report in reports:
            for tally in report.by_event.values():
                for cls, n in tally.classes.items():
                    seen[cls] += n
        assert all(seen[c] > 0 for c in CLASSES), seen


class TestCoalescing:
    def test_interval_one_coalesces_and_still_joins(self):
        """interval=1: a single recorded amount (e.g. one E$ miss worth of
        stall cycles) crosses many intervals but raises one trap.  The
        truth row carries the same coalesced count as the profile row and
        the join stays total."""
        report, experiment = _run_oracle("+ecstall,1")
        assert report.unexplained == []
        truth = list(experiment.iter_truth_events())
        assert any(t.coalesced > 1 for t in truth)
        hwc = list(experiment.iter_hwc_events())
        assert [h.coalesced for h in hwc] == [t.coalesced for t in truth]
        # a coalesced trap still has a single trigger instruction, so
        # coalescing must not degrade attribution
        assert report.counts("ecstall").exact_pc_rate >= 0.95


class TestFuzz:
    @pytest.mark.parametrize("seed", [2, 5, 11])
    def test_fuzz_programs_join_totally(self, seed):
        """Random (valid, terminating) programs: the oracle must still
        classify everything with zero unexplained rows."""
        source = generate_source(seed, size=6)
        for counter in ("+ecrm,13", "+dtlbm,7"):
            report, _ = _run_oracle(counter, source=source,
                                    input_longs=FUZZ_INPUT,
                                    name=f"fuzz{seed}")
            assert report.unexplained == []
            assert report.classified == report.total_events
            for tally in report.by_event.values():
                assert tally.spurious_not_found == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(24))
    def test_fuzz_sweep_wide(self, seed):
        """Nightly: wider program sweep across every backtrackable counter,
        a coalescing-prone interval, and the sampled-latency event from
        the extended taxonomy."""
        source = generate_source(seed, size=8)
        for counter in ALL_COUNTERS + ["+ecstall,1", "+ldlat,17"]:
            report, _ = _run_oracle(counter, source=source,
                                    input_longs=FUZZ_INPUT,
                                    name=f"fuzz{seed}")
            assert report.unexplained == []
            assert report.classified == report.total_events
            for tally in report.by_event.values():
                assert tally.spurious_not_found == 0
                assert tally.rate(WRONG_EA) == 0.0


class TestMcfAcceptance:
    @pytest.fixture(scope="class")
    def mcf_report(self):
        from repro.mcf.instance import encode_instance, generate_instance
        from repro.mcf.sources import LayoutVariant
        from repro.mcf.workload import build_mcf

        program = build_mcf(LayoutVariant.BASELINE)
        input_longs = encode_instance(generate_instance(trips=15, seed=9))
        experiments = []
        # tiny_config so the small fixed-seed instance still misses in the
        # caches and the TLB (scaled caches swallow it whole)
        for counters in (["+ecstall,97", "+ecrm,29"], ["+ecref,53", "+dtlbm,11"]):
            experiments.append(collect(
                program,
                tiny_config(),
                CollectConfig(counters=counters, name="mcf-oracle"),
                input_longs=input_longs,
            ))
        return oracle_experiments(experiments)

    def test_mcf_fixed_seed_run_classifies_every_event(self, mcf_report):
        """The acceptance criterion: on the fixed-seed MCF run the oracle
        places 100% of overflow events into the five classes with zero
        unexplained rows."""
        assert mcf_report.unexplained == []
        assert mcf_report.total_events > 0
        assert mcf_report.classified == mcf_report.total_events
        assert set(mcf_report.by_event) == {"ecstall", "ecrm", "ecref", "dtlbm"}

    def test_mcf_exact_pc_floors(self, mcf_report):
        assert mcf_report.counts("dtlbm").exact_pc_rate == 1.0
        assert mcf_report.counts("ecrm").exact_pc_rate >= 0.95
        assert mcf_report.counts("ecstall").exact_pc_rate >= 0.95
        # ecref's 2-5 instruction skid crosses other references constantly
        # in MCF's memop-dense pricing loops: most candidates are a later
        # reference (the paper's known worst case; DESIGN.md §9).  The
        # floor only pins the oracle's measurement, not a quality claim.
        assert mcf_report.counts("ecref").exact_pc_rate >= 0.20
        assert mcf_report.counts("ecref").rate(WRONG_PC) <= 0.85
        for tally in mcf_report.by_event.values():
            assert tally.spurious_not_found == 0


class TestThreadedCohm:
    """Accuracy gate for the coherence-miss counter on the fixed-seed
    threaded MCF-style case (four workers falsely sharing a struct
    array).  The floors are committed per core count; ``cohm`` has the
    short 0-1 skid of the stall counters and its triggers are plain
    loads/stores, so attribution should stay essentially exact."""

    @pytest.fixture(scope="class")
    def threaded(self):
        import dataclasses

        from tests.conftest import THREADED_MCF_SRC

        results = {}
        for cores in (2, 4):
            config = dataclasses.replace(tiny_config(), cores=cores,
                                         thread_quantum=211)
            results[cores] = _run_oracle("+cohm,23", source=THREADED_MCF_SRC,
                                         name=f"tmcf{cores}",
                                         machine_config=config)
        return results

    @pytest.mark.parametrize("cores", [2, 4])
    def test_join_is_total_per_core_count(self, threaded, cores):
        report, _ = threaded[cores]
        assert report.unexplained == []
        assert report.total_events > 0
        assert report.classified == report.total_events
        for tally in report.by_event.values():
            assert tally.spurious_not_found == 0

    @pytest.mark.parametrize("cores", [2, 4])
    def test_cohm_exact_pc_and_ea_floors(self, threaded, cores):
        # measured 1.00 exact-PC and >0.98 EA recovery at both core
        # counts; the floors keep slack for codegen/interval changes
        report, experiment = threaded[cores]
        tally = report.counts("cohm")
        assert tally.events > 50
        assert tally.exact_pc_rate >= 0.95
        assert tally.rate(WRONG_EA) == 0.0
        recovered = sum(1 for h in experiment.iter_hwc_events()
                        if h.effective_address is not None)
        assert recovered / tally.events >= 0.90

    def test_more_cores_mean_more_coherence_traffic(self, threaded):
        # 4 cores interleave the false sharing more finely than 2
        assert (threaded[4][0].counts("cohm").events
                > threaded[2][0].counts("cohm").events)

    def test_events_carry_core_and_thread(self, threaded):
        _, experiment = threaded[4]
        events = list(experiment.iter_hwc_events())
        assert {e.core for e in events} >= {0, 1}
        assert {e.thread for e in events} >= {1, 2}


#: data-dependent alternating branch: BTFN mispredicts ~50% of the
#: forward conditionals, so ``brm`` actually accumulates events
BRANCHY_SRC = """
long main(long *input, long n) {
    long i; long s;
    s = 0;
    for (i = 0; i < 20000; i++) {
        if ((i & 1) == 0) {
            s = s + i;
        } else {
            s = s - 1;
        }
    }
    return s & 255;
}
"""

#: store-heavy strided loop for the ``stbytes`` byte-bandwidth counter
STORE_SRC = """
struct rec { long a; long b; long c; long d; };
long main(long *input, long n) {
    struct rec *arr;
    long i; long j; long s;
    arr = (struct rec *) malloc(2048 * sizeof(struct rec));
    s = 0;
    for (j = 0; j < 4; j++) {
        for (i = 0; i < 2048; i++) {
            arr[i].a = i * 3;
            arr[i].c = i - j;
            s = s + arr[i].a;
        }
    }
    return s & 255;
}
"""


class TestExtendedTaxonomy:
    """Accuracy gates for the bandwidth / branch / latency counters."""

    def test_ldlat_is_precise_and_latencies_check_out(self):
        # SPE-style sampling traps on the load itself (skid 0): every
        # event is exact, and the reported latency matches ground truth
        report, experiment = _run_oracle("+ldlat,101")
        tally = report.counts("ldlat")
        assert report.unexplained == []
        assert tally.events > 0
        assert tally.exact_pc_rate == 1.0
        assert tally.classes[EXACT] == tally.events
        assert tally.latency_checked == tally.events
        assert tally.latency_wrong == 0
        for hwc in experiment.iter_hwc_events():
            assert hwc.latency is not None and hwc.latency > 0

    def test_ldbytes_joins_totally_with_exact_pc_floor(self):
        # byte-bandwidth loads fire densely; the 1-4 instruction skid
        # keeps the PC but usually loses the address to a clobber
        report, _ = _run_oracle("+ldbytes,31")
        tally = report.counts("ldbytes")
        assert report.unexplained == []
        assert tally.events > 0
        assert tally.exact_pc_rate >= 0.85
        assert tally.rate(WRONG_EA) == 0.0
        assert tally.spurious_not_found == 0

    def test_stbytes_backtracks_through_stores(self):
        # the search walks back to *store* memops (the new memop class)
        report, _ = _run_oracle("+stbytes,33", source=STORE_SRC)
        tally = report.counts("stbytes")
        assert report.unexplained == []
        assert tally.events > 0
        assert tally.exact_pc_rate >= 0.85
        assert tally.rate(EXACT) >= 0.20
        assert tally.rate(WRONG_EA) == 0.0
        assert tally.spurious_not_found == 0

    def test_branch_counters_join_totally(self):
        # br/brm take no backtracking (not memory events): every event
        # is an honest correct-unknown, and the join stays total
        program = build_executable(BRANCHY_SRC, name="branchy")
        experiment = collect(
            program,
            tiny_config(),
            CollectConfig(counters=["brm,61", "br,127"], name="branchy"),
        )
        report = oracle_experiment(experiment)
        assert report.unexplained == []
        for name in ("br", "brm"):
            tally = report.counts(name)
            assert tally.events > 0
            assert tally.classes[CORRECT_UNKNOWN] == tally.events

    def test_backtrack_rejected_on_branch_counters(self):
        from repro.errors import CollectError

        with pytest.raises(CollectError, match="memory-related"):
            _run_oracle("+br,127")


class TestCli:
    def test_erprint_oracle_verb(self, tmp_path, capsys):
        from repro.analyze.erprint import main

        program = build_executable(SRC, name="cli-oracle")
        outdir = tmp_path / "cli-oracle"
        collect(
            program,
            tiny_config(),
            CollectConfig(counters=["+ecrm,13"], name="cli-oracle"),
            save_to=str(outdir),
        )
        saved = str(outdir.with_suffix(".er"))
        assert main([saved, "oracle"]) == 0
        out = capsys.readouterr().out
        assert "Exact-PC%" in out
        assert "0 unexplained" in out

    def test_erprint_oracle_missing_truth_journal(self, tmp_path, capsys):
        """Experiments recorded before the side channel existed are
        reported, not silently treated as perfect."""
        from repro.analyze.erprint import main

        program = build_executable(SRC, name="cli-notruth")
        outdir = tmp_path / "cli-notruth"
        collect(
            program,
            tiny_config(),
            CollectConfig(counters=["+ecrm,13"], name="cli-notruth"),
            save_to=str(outdir),
        )
        saved = outdir.with_suffix(".er")
        (saved / "truth.jsonl").unlink()
        # the manifest guards every file; rewrite it so salvage mode does
        # not flag the removal as damage (this simulates an old recording)
        import json
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["files"] = {k: v for k, v in manifest["files"].items()
                             if k != "truth.jsonl"}
        (saved / "manifest.json").write_text(json.dumps(manifest))
        assert main([str(saved), "oracle"]) == 1
        out = capsys.readouterr().out
        assert "no truth journal" in out


def test_render_oracle_lists_unexplained(strided):
    report, _ = strided["+ecrm,13"]
    text = render_oracle(report)
    assert "ecrm" in text
    assert "0 unexplained" in text
