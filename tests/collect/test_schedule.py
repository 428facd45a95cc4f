"""Tests for the counter-multiplexing scheduler (collect.schedule).

Covers the register-assignment matching, the minimum-pass packing, the
``--schedule plan`` dry run, CLI auto-splitting into passes, and the
time-multiplexed single-run mode with its scaled-estimate flagging.
"""

import json

import pytest

from repro.collect.cli import main
from repro.collect.collector import CollectConfig, collect
from repro.collect.schedule import assign_registers, plan_passes
from repro.config import scaled_config
from repro.errors import CollectError
from repro.parallel import build_workload


class TestAssignRegisters:
    def test_flexible_pair_keeps_first_fit(self):
        # cycles and insts can each go on either PIC; the matcher must
        # keep the natural order (cycles->PIC0, insts->PIC1) so journal
        # file names of previously-working configs do not change
        specs = assign_registers(["cycles,on", "insts,on"])
        assert [s.event.name for s in specs] == ["cycles", "insts"]
        assert [s.register for s in specs] == [0, 1]

    def test_constrained_event_displaces_flexible_one(self):
        # ecrm is PIC1-only; insts must yield PIC1 and take PIC0
        specs = assign_registers(["insts,on", "+ecrm,on"])
        by_name = {s.event.name: s.register for s in specs}
        assert by_name == {"insts": 0, "ecrm": 1}

    def test_infeasible_pair_rejected(self):
        with pytest.raises(CollectError, match="cannot be mapped"):
            assign_registers(["+ecstall,on", "ecref,on"])  # both PIC0-only

    def test_three_counters_rejected(self):
        with pytest.raises(CollectError, match="at most two"):
            assign_registers(["cycles,on", "insts,on", "ecref,on"])


class TestPlanPasses:
    def test_acceptance_six_counters_three_passes(self):
        plan = plan_passes([
            "+ecstall,on", "+ecrm,on", "+dcrm,on",
            "ecref,on", "dtlbm,on", "insts,on",
        ])
        assert len(plan.passes) == 3
        assert not plan.multiplexed
        assert plan.scale == 1
        # every request appears exactly once, on a register in its menu
        requests = [a.request for p in plan.passes for a in p]
        assert sorted(requests) == sorted([
            "+ecstall,on", "+ecrm,on", "+dcrm,on",
            "ecref,on", "dtlbm,on", "insts,on",
        ])
        for p in plan.passes:
            registers = [a.register for a in p]
            assert len(set(registers)) == len(registers)

    def test_pic0_only_pair_splits(self):
        plan = plan_passes(["+ecstall,on", "ecref,on"])
        assert len(plan.passes) == 2

    def test_duplicate_event_spreads_over_passes(self):
        # one event cannot occupy both PICs in the same pass
        plan = plan_passes(["ecrm,on", "ecrm,lo"])
        assert len(plan.passes) == 2

    def test_empty_request_rejected(self):
        with pytest.raises(CollectError, match="no counters"):
            plan_passes([])

    def test_pass_zero_carries_first_request(self):
        plan = plan_passes(["+ecstall,on", "+ecrm,on", "ecref,on"])
        assert plan.passes[0][0].request == "+ecstall,on"

    def test_multiplexed_plan_refuses_a_repeated_event(self):
        # dedicated passes may repeat an event; one multiplexed run may
        # not, so the plan refuses what the run would refuse
        requests = ["ecrm,on", "ecrm,lo", "dtlbm,on"]
        assert len(plan_passes(requests).passes) == 3
        with pytest.raises(CollectError, match="repeat an event"):
            plan_passes(requests, multiplex=True)

    def test_multiplexed_only_when_needed(self):
        one = plan_passes(["cycles,on", "insts,on"], multiplex=True)
        assert not one.multiplexed
        many = plan_passes(["+ecstall,on", "ecref,on"], multiplex=True)
        assert many.multiplexed
        assert many.scale == 2

    def test_describe_mentions_pass_count(self):
        plan = plan_passes([
            "+ecstall,on", "+ecrm,on", "+dcrm,on",
            "ecref,on", "dtlbm,on", "insts,on",
        ])
        text = plan.describe()
        assert "6 counters -> 3 passes" in text
        assert "PIC0 <- +ecstall,on" in text


class TestCycleInstsRegression:
    def test_exact_cli_string_schedules_both_registers(self, tmp_path, capsys):
        # the historical collision: both events defaulted to PIC0 at
        # parse time; the exact reported CLI string must now run
        outdir = str(tmp_path / "ci")
        assert main([
            "-h", "cycles,on,insts,on", "-o", outdir,
            "--workload", "mcf", "--trips", "15",
        ]) == 0
        info = json.loads((tmp_path / "ci.er" / "info.json").read_text())
        registers = {c["name"]: c["register"] for c in info["counters"]}
        assert registers == {"cycles": 0, "insts": 1}


class TestCliScheduling:
    def test_schedule_plan_dry_run(self, capsys):
        assert main([
            "--schedule", "plan",
            "-h", "+ecstall,on,+ecrm,on,+dcrm,on,ecref,on,dtlbm,on,insts,on",
        ]) == 0
        out = capsys.readouterr().out
        assert "6 counters -> 3 passes" in out

    def test_schedule_plan_requires_counters(self, capsys):
        assert main(["--schedule", "plan"]) == 2
        assert "no counters requested" in capsys.readouterr().err

    def test_long_list_auto_splits_into_passes(self, tmp_path, capsys):
        outdir = str(tmp_path / "auto.er")
        assert main([
            "-h", "+ecstall,97,+ecrm,53,ecref,31",
            "-o", outdir, "--workload", "mcf", "--trips", "15",
        ]) == 0
        assert (tmp_path / "auto-p0.er" / "info.json").exists()
        assert (tmp_path / "auto-p1.er" / "info.json").exists()
        from repro.analyze.erprint import main as erprint_main

        capsys.readouterr()
        assert erprint_main([
            str(tmp_path / "auto-p0.er"), str(tmp_path / "auto-p1.er"),
            "overview",
        ]) == 0

    def test_backtrack_on_non_memory_event_exits_2(self, capsys):
        assert main(["-h", "+cycles,on", "--trips", "15"]) == 2
        err = capsys.readouterr().err
        assert "backtracking applies only to memory-related counters" in err

    def test_sampling_flag_validated(self, capsys):
        assert main(["-S", "on", "-h", "+ecrm,53"]) == 2
        err = capsys.readouterr().err
        assert "-S on is not supported" in err

    def test_jobs_warns_on_single_pass(self, tmp_path, capsys):
        outdir = str(tmp_path / "jobs.er")
        assert main([
            "-p", "off", "-h", "+ecrm,53", "-o", outdir, "--jobs", "4",
            "--workload", "mcf", "--trips", "15",
        ]) == 0
        err = capsys.readouterr().err
        assert "--jobs has no effect on a single-pass run" in err


class TestMultiplexing:
    def test_multiplexed_run_flags_estimates(self, tmp_path, capsys):
        outdir = str(tmp_path / "mux.er")
        assert main([
            "--multiplex", "-h", "+dcrm,17,+ecrm,13,insts,on",
            "--multiplex-quantum", "3000",
            "-o", outdir, "--workload", "mcf", "--trips", "30",
        ]) == 0
        info = json.loads((tmp_path / "mux.er" / "info.json").read_text())
        assert all(c["multiplexed"] for c in info["counters"])
        assert {c["scale"] for c in info["counters"]} == {2}
        assert {c["group"] for c in info["counters"]} == {0, 1}
        events = [
            json.loads(line)
            for line in (tmp_path / "mux.er" / "hwc0.jsonl").read_text().splitlines()
        ]
        assert events
        assert {e["scale"] for e in events} == {2}
        # the header verb surfaces the estimate caveat
        from repro.analyze.erprint import main as erprint_main

        capsys.readouterr()
        assert erprint_main([outdir, "header"]) == 0
        out = capsys.readouterr().out
        assert "multiplexed group" in out
        assert "estimates scaled x2" in out

    def test_multiplexed_journals_engine_identical(self, tmp_path):
        program, input_longs = build_workload("mcf", 20, 1, "baseline")
        for engine, name in (("fast", "a.er"), ("reference", "b.er")):
            config = CollectConfig(
                engine=engine,
                multiplex_groups=[["+dcrm,17"], ["insts,on"]],
                multiplex_quantum=2000,
                name=name,
            )
            collect(program, scaled_config(), config,
                    input_longs=input_longs, save_to=tmp_path / name)
        for journal in ("hwc0.jsonl", "truth.jsonl", "clock.jsonl"):
            a = (tmp_path / "a.er" / journal).read_text()
            b = (tmp_path / "b.er" / journal).read_text()
            assert a == b, f"{journal} differs between engines"
        # both groups took turns on PIC0
        hwc = (tmp_path / "a.er" / "hwc0.jsonl").read_text().splitlines()
        assert {json.loads(line)["event"] for line in hwc} == {"dcrm", "insts"}

    def test_reduction_scales_multiplexed_weights(self, tmp_path, capsys):
        # the same counters, dedicated vs multiplexed: the multiplexed
        # totals are scaled estimates of the dedicated ones
        base = ["-p", "off", "--workload", "mcf", "--trips", "20"]
        assert main([
            *base, "-h", "insts,on", "-o", str(tmp_path / "ded.er"),
        ]) == 0
        assert main([
            *base, "--multiplex", "-h", "insts,on,+ecstall,on,ecref,on",
            "--multiplex-quantum", "2000", "-o", str(tmp_path / "mux.er"),
        ]) == 0
        from repro.analyze.reduce import reduce_experiments

        dedicated = reduce_experiments([str(tmp_path / "ded.er")])
        multiplexed = reduce_experiments([str(tmp_path / "mux.er")])
        exact = dedicated.total["insts"]
        estimate = multiplexed.total["insts"]
        assert estimate > 0
        # the scaled estimate lands within a factor of two of the truth
        assert exact / 2 <= estimate <= exact * 2
