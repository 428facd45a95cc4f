"""Tests for the er_print-style CLI."""

import pytest

from repro import build_executable, tiny_config
from repro.analyze.erprint import main, run_command
from repro.analyze.reduce import reduce_experiment
from repro.collect.collector import CollectConfig, collect
from repro.errors import ReproError

SRC = """
struct rec { long a; long b; long c; long d; };
long main(long *input, long n) {
    struct rec *arr;
    long i; long j; long s;
    arr = (struct rec *) malloc(1024 * sizeof(struct rec));
    s = 0;
    for (j = 0; j < 3; j++) {
        for (i = 0; i < 1024; i++) arr[i].a = i;
        for (i = 0; i < 1024; i++) s = s + arr[i].c;
    }
    return s & 255;
}
"""


@pytest.fixture(scope="module")
def experiment_dir(tmp_path_factory):
    program = build_executable(SRC)
    cfg = CollectConfig(clock_profiling=True, clock_interval=211,
                        counters=["+ecstall,59", "+ecrm,13"])
    exp = collect(program, tiny_config(), cfg)
    path = tmp_path_factory.mktemp("exps") / "run"
    return str(exp.save(path))


@pytest.fixture(scope="module")
def reduced():
    program = build_executable(SRC)
    cfg = CollectConfig(clock_profiling=True, clock_interval=211,
                        counters=["+ecstall,59", "+ecrm,13"])
    return reduce_experiment(collect(program, tiny_config(), cfg))


class TestRunCommand:
    @pytest.mark.parametrize("command,args,needle", [
        ("overview", [], "Exclusive"),
        ("functions", [], "<Total>"),
        ("source", ["main"], "arr[i].c"),
        ("disasm", ["main"], "ldx"),
        ("pcs", ["ecrm"], "main + 0x"),
        ("data_objects", [], "structure:rec"),
        ("data_single", ["structure:rec"], "+16"),
        ("callers-callees", ["main"], "*main"),
        ("segments", ["ecrm"], "heap"),
        ("lines", ["ecrm"], "line 0x"),
    ])
    def test_commands_produce_output(self, reduced, command, args, needle):
        assert needle in run_command(reduced, command, args)

    def test_unknown_command(self, reduced):
        with pytest.raises(ReproError):
            run_command(reduced, "bogus", [])

    def test_missing_argument(self, reduced):
        with pytest.raises(ReproError):
            run_command(reduced, "source", [])


class TestMain:
    def test_full_cli_roundtrip(self, experiment_dir, capsys):
        assert main([experiment_dir, "functions"]) == 0
        out = capsys.readouterr().out
        assert "<Total>" in out

    def test_overview_via_cli(self, experiment_dir, capsys):
        assert main([experiment_dir, "overview"]) == 0
        assert "E$ stall fraction" in capsys.readouterr().out

    def test_no_experiment_is_error(self, capsys):
        assert main(["functions"]) == 2

    def test_no_command_is_error(self, experiment_dir, capsys):
        assert main([experiment_dir]) == 2

    def test_bad_directory_is_error(self, capsys):
        assert main(["/nonexistent/exp.er", "functions"]) == 1

    @pytest.mark.parametrize("cache", [[], ["--no-cache"]], ids=["", "no-cache"])
    def test_experiments_of_different_programs_are_an_error_line(
            self, experiment_dir, tmp_path, cache, capsys):
        other = collect(
            build_executable("long main(long *i, long n) { return 0; }"),
            tiny_config(), CollectConfig(clock_profiling=True,
                                         clock_interval=211),
        ).save(tmp_path / "other")
        assert main([experiment_dir, str(other), *cache, "functions"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot merge experiments over different programs\n")

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "er_print" in capsys.readouterr().out


class TestHeader:
    def test_header_command(self, reduced):
        from repro.analyze.erprint import run_command

        text = run_command(reduced, "header", [])
        assert "HW counter: +ecstall" in text
        assert "segment heap" in text
        assert "recorded no event" not in text


class TestEmptyCounters:
    """A requested counter that recorded nothing is named by ``header``
    and ``fsck`` in ``repro-collect``'s words; it is not damage."""

    @pytest.fixture(scope="class")
    def quiet_dir(self, tmp_path_factory):
        # an interval above the run's E$ read-miss total: ecrm never fires
        cfg = CollectConfig(clock_profiling=True, clock_interval=211,
                            counters=["+ecstall,59", "+ecrm,100000000"])
        exp = collect(build_executable(SRC), tiny_config(), cfg)
        misses = exp.info.totals["ec_read_misses"]
        assert 0 < misses < 100000000
        path = exp.save(tmp_path_factory.mktemp("quiet") / "run")
        note = (f"warning: ecrm recorded no event (interval 100000000; "
                f"the run had {misses} E$ read misses)")
        return str(path), note

    def test_header_names_the_empty_counter(self, quiet_dir, capsys):
        path, note = quiet_dir
        assert main([path, "header"]) == 0
        text = capsys.readouterr().out
        assert f"  {note}\n" in text
        assert text.count("recorded no event") == 1

    def test_fsck_names_it_and_stays_healthy(self, quiet_dir, capsys):
        path, note = quiet_dir
        assert main([path, "fsck"]) == 0
        text = capsys.readouterr().out
        assert f"  {note}\n" in text
        assert text.count("recorded no event") == 1
        assert "status: healthy" in text

    def test_fsck_of_a_run_whose_counters_fired_names_none(
            self, experiment_dir, capsys):
        assert main([experiment_dir, "fsck"]) == 0
        assert "recorded no event" not in capsys.readouterr().out


class TestMissingAxes:
    """A verb whose axis was never recorded answers plainly and exits 0
    (an absent axis is an answer, not an error)."""

    def test_latency_without_ldlat_samples(self, reduced):
        text = run_command(reduced, "latency", [])
        assert "no latency data recorded" in text
        assert "+ldlat" in text

    def test_latency_names_requested_metric(self, reduced):
        text = run_command(reduced, "latency", ["stlat"])
        assert "no latency data recorded" in text
        assert "+stlat" in text

    def test_sharing_on_single_core_run(self, reduced):
        text = run_command(reduced, "sharing", [])
        assert "no sharing data recorded" in text
        assert "--cores > 1" in text

    def test_latency_exits_zero(self, experiment_dir, capsys):
        assert main([experiment_dir, "latency"]) == 0
        out = capsys.readouterr().out
        assert "no latency data recorded" in out

    def test_sharing_exits_zero(self, experiment_dir, capsys):
        assert main([experiment_dir, "sharing"]) == 0
        out = capsys.readouterr().out
        assert "no sharing data recorded" in out
