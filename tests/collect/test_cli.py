"""Tests for the repro-collect CLI."""

import pytest

from repro.collect.cli import _parse_counter_list, main
from repro.errors import ReproError


class TestCounterListParsing:
    def test_paper_first_experiment(self):
        assert _parse_counter_list("+ecstall,lo,+ecrm,on") == [
            "+ecstall,lo",
            "+ecrm,on",
        ]

    def test_paper_second_experiment(self):
        assert _parse_counter_list("+ecref,on,+dtlbm,on") == [
            "+ecref,on",
            "+dtlbm,on",
        ]

    def test_single_counter_no_interval(self):
        assert _parse_counter_list("+ecrm") == ["+ecrm"]

    def test_numeric_intervals(self):
        assert _parse_counter_list("ecrm,97,cycles,4999") == ["ecrm,97", "cycles,4999"]

    def test_garbage_rejected(self):
        with pytest.raises(ReproError):
            _parse_counter_list("lo,+ecrm")

    def test_trailing_comma_rejected(self):
        with pytest.raises(ReproError, match="empty counter specification"):
            _parse_counter_list("+ecrm,on,")

    def test_double_comma_rejected(self):
        with pytest.raises(ReproError, match="empty counter specification"):
            _parse_counter_list("+ecrm,,on")

    def test_interval_only_leading_token_rejected(self):
        with pytest.raises(ReproError, match="bad counter specification"):
            _parse_counter_list("on,+ecrm,on")

    def test_repeated_counter_name_splits_requests(self):
        # the same event twice is two requests (the scheduler later
        # spreads them over passes; one event cannot hold both PICs)
        assert _parse_counter_list("ecrm,on,ecrm,lo") == ["ecrm,on", "ecrm,lo"]

    def test_backtrack_error_surfaces_verbatim_through_cli(self, capsys):
        # '+' on a non-memory event: the CollectError text must reach
        # stderr unchanged, with exit code 2 (not a traceback)
        assert main(["-h", "+insts,on"]) == 2
        err = capsys.readouterr().err
        assert "+insts: backtracking applies only to memory-related counters" in err


class TestMain:
    def test_no_args_lists_counters(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in ("ecstall", "ecrm", "ecref", "dtlbm", "cycles"):
            assert name in out
        assert "backtracking" in out

    def test_collect_run_writes_experiment(self, tmp_path, capsys):
        outdir = str(tmp_path / "cli_test")
        code = main([
            "-S", "off", "-p", "on",
            "-h", "+ecstall,97,+ecrm,53",
            "-o", outdir,
            "--workload", "mcf", "--trips", "15",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment written" in out
        from repro.collect.experiment import Experiment

        exp = Experiment.open(outdir + ".er" if not outdir.endswith(".er") else outdir)
        assert exp.hwc_events
        assert exp.clock_events

    def test_unmodelled_icm_counter_rejected(self, tmp_path, capsys):
        # no I$ is modelled, so an icm counter could never fire: it is
        # refused before anything is written, not collected as zero
        outdir = tmp_path / "icm"
        assert main(["-h", "icm,on", "-o", str(outdir),
                     "--workload", "mcf", "--trips", "10"]) == 2
        assert "bad counter specification" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_engine_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--engine", "trace", "-o", str(tmp_path / "eng"),
                  "--workload", "mcf", "--trips", "10"])
        assert exited.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_clock_off(self, tmp_path, capsys):
        outdir = str(tmp_path / "noclock")
        code = main([
            "-p", "off", "-h", "+ecrm,53", "-o", outdir,
            "--workload", "mcf", "--trips", "15",
        ])
        assert code == 0
        from repro.collect.experiment import Experiment

        exp = Experiment.open(outdir + ".er")
        assert not exp.clock_events


class TestEndToEndWithErprint:
    def test_collect_then_analyze(self, tmp_path, capsys):
        """The full paper §2 user model: collect, then er_print."""
        from repro.analyze.erprint import main as erprint_main

        outdir = str(tmp_path / "flow")
        assert main([
            "-p", "on", "-h", "+ecstall,97,+ecrm,53", "-o", outdir,
            "--workload", "mcf", "--trips", "15",
        ]) == 0
        capsys.readouterr()
        assert erprint_main([outdir + ".er", "functions"]) == 0
        out = capsys.readouterr().out
        assert "refresh_potential" in out


class TestCommercialWorkload:
    def test_collect_commercial(self, tmp_path, capsys):
        outdir = str(tmp_path / "comm")
        assert main([
            "-p", "off", "-h", "+ecrm,53", "-o", outdir,
            "--workload", "commercial",
        ]) == 0
        from repro.collect.experiment import Experiment

        exp = Experiment.open(outdir + ".er")
        assert exp.hwc_events
