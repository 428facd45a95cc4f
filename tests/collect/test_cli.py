"""Tests for the repro-collect CLI."""

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.collect.cli import _parse_counter_list, _parser, main
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
        # the engines journal identical bytes, so the command line has no
        # engine to pick; tests select the reference oracle through
        # CollectConfig(engine=...)
        with pytest.raises(SystemExit) as exited:
            main(["--engine", "fast", "-o", str(tmp_path / "eng"),
                  "--workload", "mcf", "--trips", "10"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --engine fast" in capsys.readouterr().err
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


class TestWorkloadOptions:
    """Options a workload cannot honour are refused before any pass
    starts: exit 2, one line on stderr, no experiment directory."""

    @pytest.mark.parametrize("argv,message", [
        (["--workload", "commercial", "--trips", "7"],
         "does not take --trips"),
        (["--workload", "commercial", "--layout", "opt_layout"],
         "does not take --layout"),
        (["--workload", "commercial", "--seed", "0"],
         "commercial needs a seed >= 1, got 0"),
        (["--workload", "commercial", "--seed", "-1"],
         "commercial needs a seed >= 1, got -1"),
        (["--workload", "mcf", "--trips", "1"],
         "mcf needs at least 2 trips, got 1"),
        (["-h", "+ecrm,29", "-h", "+dtlbm,11", "--workload", "mcf",
          "--trips", "1"],
         "mcf needs at least 2 trips, got 1"),
        (["-h", "+ecrm,29", "-h", "+dtlbm,11", "--workload", "commercial",
          "--layout", "baseline"],
         "does not take --layout"),
        (["--multiplex-quantum", "0", "--trips", "4"],
         "multiplex quantum must be positive"),
        (["--multiplex", "--cores", "2", "-h", "+ecstall,97,+ecrm,29",
          "--trips", "4"],
         "counter multiplexing is not supported on multi-core machines"),
        (["--multiplex", "-h", "ecrm,on,ecrm,lo,dtlbm,on", "--trips", "4"],
         "multiplexed counter groups repeat an event"),
    ])
    def test_refused(self, tmp_path, capsys, argv, message):
        assert main(argv + ["-o", str(tmp_path / "exp")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not any(tmp_path.iterdir())


class TestEmptyCounterWarnings:
    """A requested counter that recorded nothing is named on stderr with
    its interval and the machine's own count; the exit code stays 0."""

    @staticmethod
    def warnings(err):
        return [line for line in err.splitlines()
                if line.startswith("collect: warning:")]

    def test_each_empty_counter_is_named(self, tmp_path, capsys):
        assert main(["-p", "on", "-h", "+ecstall,97,+ecrm,29",
                     "-h", "+ecref,53,+dtlbm,11", "-o", str(tmp_path / "m"),
                     "--workload", "mcf", "--trips", "15"]) == 0
        lines = self.warnings(capsys.readouterr().err)
        assert [line.split()[2] for line in lines] == ["ecrm", "dtlbm"]
        assert "(interval 29; the run had " in lines[0]
        assert lines[0].endswith(" E$ read misses)")
        assert "(interval 11; the run had " in lines[1]
        assert lines[1].endswith(" DTLB misses)")

    def test_single_pass_names_empty_counter(self, tmp_path, capsys):
        assert main(["-h", "+ecstall,97,+ecrm,29", "-o", str(tmp_path / "s"),
                     "--workload", "mcf", "--trips", "15"]) == 0
        lines = self.warnings(capsys.readouterr().err)
        assert [line.split()[2] for line in lines] == ["ecrm"]

    def test_no_warning_when_every_counter_fires(self, tmp_path, capsys):
        assert main(["-p", "on", "-h", "+ecstall,7,+ecrm,3",
                     "-h", "+ecref,5,+dtlbm,2", "-o", str(tmp_path / "f"),
                     "--workload", "mcf", "--trips", "15"]) == 0
        assert self.warnings(capsys.readouterr().err) == []


MCF = ["--workload", "mcf", "--trips", "4"]
COUNTERS = ["-h", "+ecstall,97,+ecrm,29"]

#: option -> (a run with it at a non-default value, the same run without)
OPTION_ROWS = {
    "-S": ([*MCF, "-S", "on"], MCF),
    "-p": ([*MCF, "-p", "off"], MCF),
    "-h": ([*MCF, *COUNTERS], MCF),
    "--schedule": ([*MCF, *COUNTERS, "--schedule", "plan"], [*MCF, *COUNTERS]),
    "--multiplex": ([*MCF, *COUNTERS, "--multiplex"], [*MCF, *COUNTERS]),
    "--multiplex-quantum": ([*MCF, "--multiplex-quantum", "777"], MCF),
    "--jobs": ([*MCF, "--jobs", "2"], MCF),
    "--workload": (["--workload", "commercial"], MCF),
    "--trips": (["--workload", "mcf", "--trips", "5"], MCF),
    "--seed": ([*MCF, "--seed", "2"], MCF),
    "--layout": ([*MCF, "--layout", "opt_layout"], MCF),
    "--cores": ([*MCF, "--cores", "2"], MCF),
    "--heap-page-bytes": ([*MCF, "--heap-page-bytes", "65536"], MCF),
    "--watchdog-cycles": ([*MCF, "--watchdog-cycles", "1000"], MCF),
    "--watchdog-instructions": ([*MCF, "--watchdog-instructions", "1000"],
                                MCF),
    "--fault-plan": ([*MCF, "--fault-plan", "seed=7,kill_at=1000"], MCF),
}


def _options() -> list:
    """Every option of the parser except ``-o`` and ``--help``."""
    return [action.option_strings[0] for action in _parser()._actions
            if action.option_strings[0] not in ("-o", "--help")]


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    """Run ``repro-collect argv -o <dir>/exp`` (memoized per argv) and
    return its exit code, stdout, stderr and the bytes of every file it
    wrote.  Every run writes the same path, so the directory name in the
    output and in ``config_name`` is the same for all of them; only
    ``log.txt`` (wall-clock stamps) and its manifest entry are left out.
    """
    root = tmp_path_factory.mktemp("effects")
    runs = {}

    def run(argv):
        if tuple(argv) not in runs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, "-o", str(root / "exp")])
            files = {}
            for path in sorted(root.rglob("*")):
                if not path.is_file() or path.name == "log.txt":
                    continue
                data = path.read_bytes()
                if path.name == "manifest.json":
                    manifest = json.loads(data)
                    manifest["files"].pop("log.txt", None)
                    data = json.dumps(manifest, sort_keys=True).encode()
                files[str(path.relative_to(root))] = data
            runs[tuple(argv)] = (code, out.getvalue(), err.getvalue(), files)
            shutil.rmtree(root)
            root.mkdir()
        return runs[tuple(argv)]

    return run


class TestOptionEffects:
    """Each option of ``repro-collect`` changes what a run does: its exit
    code, its output (a warning on stderr counts) or a byte of the
    directory it writes.  The rows are keyed by the parser's own option
    list, so an option added without a row fails here."""

    @pytest.mark.parametrize("option", _options())
    def test_option_changes_the_run(self, outcome, option):
        with_option, without = OPTION_ROWS[option]
        assert outcome(with_option) != outcome(without), (
            f"{option} changed nothing: no exit code, output or file "
            f"differs from the run without it"
        )

    def test_every_row_is_an_option(self):
        assert set(OPTION_ROWS) == set(_options())
