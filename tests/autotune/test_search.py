"""End-to-end tests for the autotune search driver.

The expensive fixtures run one real search (small fixed-seed MCF slice
on the ``tight`` machine) and one budget-interrupted + resumed copy of
it; the tests then assert the ISSUE's acceptance properties: measured
wins, damaged-profile refusal, and the crash-safe journal recovering a
killed search to the same winner chain, byte for byte.
"""

import shutil

import pytest

from repro.autotune.journal import SearchJournal
from repro.autotune.search import AutotuneSearch, SearchOptions, search_summary
from repro.autotune.transforms import PageSize, Prefetch, StructReorder
from repro.autotune.workloads import make_machine, make_workload, mcf_tunable
from repro.errors import AutotuneError

TRIPS = 40
ROUNDS = 2


def _workload():
    return mcf_tunable(trips=TRIPS, seed=1)


def _options(**overrides):
    options = SearchOptions(max_rounds=ROUNDS)
    for key, value in overrides.items():
        setattr(options, key, value)
    return options


@pytest.fixture(scope="module")
def full_search(tmp_path_factory):
    """One uninterrupted search, run to completion."""
    outdir = tmp_path_factory.mktemp("autotune") / "full"
    search = AutotuneSearch(outdir, _workload(),
                            machine=make_machine("tight"),
                            options=_options())
    result = search.run()
    assert result.complete
    return result, SearchJournal(outdir)


class TestSearch:
    def test_finds_measured_win(self, full_search):
        result, _journal = full_search
        assert result.chain, "no transform beat the threshold"
        assert result.best_cycles < result.baseline_cycles
        assert result.improvement >= 0.05

    def test_rediscovers_paper_page_size(self, full_search):
        # the paper's -xpagesize_heap=512k, found from the profile alone
        result, _journal = full_search
        assert PageSize(512 * 1024) in result.chain

    def test_inserts_profile_guided_prefetches(self, full_search):
        result, _journal = full_search
        assert any(isinstance(t, Prefetch) for t in result.chain)

    def test_tries_struct_reorder_candidates(self, full_search):
        # reorder+pad candidates (the paper's §3.3 edit) are generated
        # and measured each round; CI's autotune-smoke asserts a longer
        # search accepts one
        _result, journal = full_search
        kinds = {t["chain"][-1]["kind"]
                 for t in search_summary(journal.read())["trials"]
                 if t.get("chain")}
        assert "reorder" in kinds
        assert "pagesize" in kinds

    def test_split_candidates_journal_as_unsupported(self, full_search):
        _result, journal = full_search
        trials = search_summary(journal.read())["trials"]
        splits = [t for t in trials
                  if t.get("chain") and t["chain"][-1]["kind"] == "split"]
        assert splits, "advisor never proposed a hot/cold split"
        assert all(t["status"] == "unsupported" for t in splits)

    def test_rerun_is_idempotent_replay(self, full_search):
        result, journal = full_search
        before = journal.path.read_bytes()
        again = AutotuneSearch(journal.outdir, _workload(),
                               machine=make_machine("tight"),
                               options=_options()).run()
        assert journal.path.read_bytes() == before
        assert again.complete
        assert again.best_cycles == result.best_cycles
        assert again.chain == result.chain

    def test_summary_matches_result(self, full_search):
        result, journal = full_search
        summary = search_summary(journal.read())
        assert summary["result"]["best_cycles"] == result.best_cycles
        assert summary["baseline_cycles"] == result.baseline_cycles
        assert summary["chain"] == result.chain


class TestKillAndResume:
    def test_budget_pause_then_resume_is_byte_identical(
        self, full_search, tmp_path
    ):
        """A search stopped mid-round (trial budget, the deterministic
        stand-in for a kill) and resumed must append exactly what the
        uninterrupted search wrote, and land on the same winner chain."""
        full_result, full_journal = full_search
        outdir = tmp_path / "interrupted"
        paused = AutotuneSearch(outdir, _workload(),
                                machine=make_machine("tight"),
                                options=_options(budget=3)).run()
        assert paused.paused and not paused.complete
        partial = (outdir / "journal.jsonl").read_bytes()
        full = full_journal.path.read_bytes()
        assert full.startswith(partial)
        assert partial != full

        resumed = AutotuneSearch(outdir, _workload(),
                                 machine=make_machine("tight"),
                                 options=_options()).run()
        assert resumed.complete
        assert (outdir / "journal.jsonl").read_bytes() == full
        assert resumed.chain == full_result.chain
        assert resumed.best_cycles == full_result.best_cycles

    def test_resume_re_simulates_lost_trial_directories(
        self, full_search, tmp_path
    ):
        """A resumed search whose best trial lost its saved directories
        re-profiles that trial into them, reduces them again, and still
        appends exactly what the uninterrupted search wrote."""
        _full_result, full_journal = full_search
        outdir = tmp_path / "lost"
        AutotuneSearch(outdir, _workload(),
                       machine=make_machine("tight"),
                       options=_options(budget=3)).run()
        lost = [outdir / "trials" / f"t0000-p{index}.er" for index in (0, 1)]
        for directory in lost:
            shutil.rmtree(directory)
        resumed = AutotuneSearch(outdir, _workload(),
                                 machine=make_machine("tight"),
                                 options=_options()).run()
        assert resumed.complete
        assert (outdir / "journal.jsonl").read_bytes() == \
            full_journal.path.read_bytes()
        assert all((directory / "manifest.json").exists() for directory in lost)

    def test_resume_after_torn_journal_tail(self, full_search, tmp_path):
        """A kill mid-append leaves a torn line; resume truncates it and
        still converges to the same journal."""
        full_result, full_journal = full_search
        outdir = tmp_path / "torn"
        AutotuneSearch(outdir, _workload(),
                       machine=make_machine("tight"),
                       options=_options(budget=2)).run()
        with open(outdir / "journal.jsonl", "ab") as fh:
            fh.write(b'{"type":"trial","id":2,"cy')
        resumed = AutotuneSearch(outdir, _workload(),
                                 machine=make_machine("tight"),
                                 options=_options()).run()
        assert resumed.complete
        assert (outdir / "journal.jsonl").read_bytes() == \
            full_journal.path.read_bytes()
        assert resumed.chain == full_result.chain


class TestRefusals:
    def test_damaged_baseline_refused(self, tmp_path):
        """Satellite 2: the search must not score trials from damaged
        profiles — a journaled damaged baseline is a hard error."""
        search = AutotuneSearch(tmp_path, _workload(),
                                machine=make_machine("tight"),
                                options=_options())
        journal = SearchJournal(tmp_path)
        journal.append(search._meta_record())
        journal.append({"type": "trial", "id": 0, "round": 0, "chain": [],
                        "status": "damaged", "cycles": None})
        with pytest.raises(AutotuneError, match="damaged"):
            search.run()

    def test_incomplete_profile_refused_for_candidates(self, tmp_path):
        class FakeReduced:
            incomplete = True

        search = AutotuneSearch(tmp_path, _workload(),
                                machine=make_machine("tight"))
        with pytest.raises(AutotuneError, match="Incomplete"):
            search.generate_candidates(FakeReduced(), [])

    def test_meta_mismatch_refused(self, full_search, tmp_path):
        _result, full_journal = full_search
        outdir = tmp_path / "mismatch"
        outdir.mkdir()
        (outdir / "journal.jsonl").write_bytes(full_journal.path.read_bytes())
        other = AutotuneSearch(outdir, mcf_tunable(trips=TRIPS + 10, seed=1),
                               machine=make_machine("tight"),
                               options=_options())
        with pytest.raises(AutotuneError, match="workload"):
            other.run()

    def test_journal_meta_rebuilds_workload(self, full_search):
        _result, journal = full_search
        meta = journal.read()[0]
        workload = make_workload(meta["workload"])
        assert workload.meta == meta["workload"]
        assert workload.source == _workload().source
        assert workload.input_longs == _workload().input_longs
