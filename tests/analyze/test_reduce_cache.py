"""The persistent reduction cache: hits, invalidation, and shard parity.

Contracts under test:

* a complete, undamaged experiment is reduced once — the second run is
  served from ``<exp>.er/cache/`` without invoking the reducer at all;
* corruption and ``(Incomplete)`` experiments bypass the cache on both
  store and load, and detected staleness deletes the entry;
* ``fsck`` drops a cached reduction the moment it finds damage;
* sharded (multi-process) reduction is byte-identical to sequential.
"""

import json
import shutil

import pytest

from repro import build_executable, tiny_config
from repro.analyze import cache as reduction_cache
from repro.analyze.erprint import main as erprint_main, run_command
from repro.analyze.fsck import fsck_experiment
from repro.analyze.reduce import reduce_experiments, reduce_path
from repro.collect.collector import CollectConfig, collect
from repro.compiler.program import Program

SRC = """
struct rec { long a; long b; long c; long d; };
long main(long *input, long n) {
    struct rec *arr;
    long i; long j; long s;
    arr = (struct rec *) malloc(512 * sizeof(struct rec));
    s = 0;
    for (j = 0; j < 3; j++) {
        for (i = 0; i < 512; i++) arr[i].a = i;
        for (i = 0; i < 512; i++) s = s + arr[i].c;
    }
    return s & 255;
}
"""


def _collect_to(path, counters=("+ecstall,59", "+ecrm,13")):
    program = build_executable(SRC)
    cfg = CollectConfig(clock_profiling=True, clock_interval=211,
                        counters=list(counters))
    exp = collect(program, tiny_config(), cfg)
    return str(exp.save(path))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    return _collect_to(tmp_path_factory.mktemp("exps") / "run")


@pytest.fixture
def experiment_dir(pristine, tmp_path):
    """A private copy each test may warm, corrupt, or invalidate."""
    copy = tmp_path / "run.er"
    shutil.copytree(pristine, copy)
    return str(copy)


class _CountingReducer:
    """Patches the reducer entry point to count real reductions."""

    def __init__(self, monkeypatch):
        import repro.analyze.reduce as reduce_mod

        self.calls = 0
        original = reduce_mod._Reducer.run

        def counting_run(reducer):
            self.calls += 1
            return original(reducer)

        monkeypatch.setattr(reduce_mod._Reducer, "run", counting_run)


class TestCacheHit:
    def test_first_reduce_writes_the_cache(self, experiment_dir):
        reduce_path(experiment_dir)
        assert reduction_cache.cache_path(experiment_dir).exists()

    def test_second_run_does_not_reduce_again(self, experiment_dir, monkeypatch):
        first = reduce_path(experiment_dir)
        counter = _CountingReducer(monkeypatch)
        second = reduce_path(experiment_dir)
        assert counter.calls == 0, "cache hit must not re-invoke reduction"
        assert json.dumps(second.to_payload()) == json.dumps(first.to_payload())

    def test_second_erprint_run_hits_cache(self, experiment_dir, capsys,
                                           monkeypatch):
        assert erprint_main([experiment_dir, "functions"]) == 0
        warm = capsys.readouterr().out
        counter = _CountingReducer(monkeypatch)
        assert erprint_main([experiment_dir, "functions"]) == 0
        assert counter.calls == 0, "second erprint run must be served cached"
        assert capsys.readouterr().out == warm

    def test_no_cache_flag_bypasses_the_cache(self, experiment_dir,
                                              monkeypatch):
        counter = _CountingReducer(monkeypatch)
        assert erprint_main([experiment_dir, "--no-cache", "functions"]) == 0
        assert erprint_main([experiment_dir, "--no-cache", "functions"]) == 0
        assert counter.calls == 2
        assert not reduction_cache.cache_path(experiment_dir).exists()

    def test_lines_and_pages_render_identically_from_cache(self, experiment_dir,
                                                           capsys):
        assert erprint_main([experiment_dir, "lines", "ecrm"]) == 0
        first = capsys.readouterr().out
        assert "line 0x" in first
        assert erprint_main([experiment_dir, "lines", "ecrm"]) == 0
        assert capsys.readouterr().out == first

    def test_warm_two_directory_reduce_loads_the_image_once(
            self, experiment_dir, tmp_path, monkeypatch):
        second = _collect_to(tmp_path / "ref",
                             counters=("+ecref,53", "+dtlbm,11"))
        dirs = [experiment_dir, second]
        cold = run_command(reduce_experiments(dirs), "functions", [])
        loads = []
        original = Program.load

        def counting_load(path):
            loads.append(path)
            return original(path)

        monkeypatch.setattr(Program, "load", staticmethod(counting_load))
        warm = run_command(reduce_experiments(dirs), "functions", [])
        assert len(loads) == 1, f"warm reduce loaded {loads}"
        assert warm == cold


class TestInvalidation:
    def test_corruption_bypasses_and_drops_the_cache(self, experiment_dir,
                                                     monkeypatch):
        reduce_path(experiment_dir)
        journal = reduction_cache.cache_path(experiment_dir).parent.parent / "clock.jsonl"
        data = journal.read_bytes()
        journal.write_bytes(data[: len(data) // 2] + b"\x00garbage\n")
        counter = _CountingReducer(monkeypatch)
        reduced = reduce_path(experiment_dir)
        assert counter.calls == 1, "stale cache must not be served"
        assert reduced.incomplete
        # and the damaged reduction must not have been cached either
        assert not reduction_cache.cache_path(experiment_dir).exists()

    def test_incomplete_experiment_is_never_cached(self, experiment_dir):
        manifest_file = reduction_cache.cache_path(experiment_dir).parent.parent / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        manifest["complete"] = False
        manifest["fault"] = "SIGKILL"
        manifest_file.write_text(json.dumps(manifest))
        reduce_path(experiment_dir)
        assert not reduction_cache.cache_path(experiment_dir).exists()

    def test_stale_key_invalidates_cleanly(self, experiment_dir, monkeypatch):
        reduce_path(experiment_dir)
        file = reduction_cache.cache_path(experiment_dir)
        record = json.loads(file.read_text())
        record["key"] = "0" * 64
        file.write_text(json.dumps(record))
        counter = _CountingReducer(monkeypatch)
        reduce_path(experiment_dir)
        assert counter.calls == 1
        # a fresh, correctly keyed entry replaces the stale one
        assert json.loads(file.read_text())["key"] != "0" * 64

    def test_fsck_drops_stale_cache_on_damage(self, experiment_dir):
        reduce_path(experiment_dir)
        journal = reduction_cache.cache_path(experiment_dir).parent.parent / "clock.jsonl"
        journal.write_bytes(journal.read_bytes() + b"not json\n")
        text, _code = fsck_experiment(experiment_dir)
        assert "cache: stale reduction dropped" in text
        assert not reduction_cache.cache_path(experiment_dir).exists()

    def test_fsck_reports_healthy_cache(self, experiment_dir):
        reduce_path(experiment_dir)
        text, code = fsck_experiment(experiment_dir)
        assert code == 0
        assert "cache: reduction cache present" in text
        assert reduction_cache.cache_path(experiment_dir).exists()


class TestShardParity:
    def test_sharded_reduce_is_byte_identical_to_sequential(self, pristine,
                                                            tmp_path):
        second = _collect_to(tmp_path / "ref", counters=("+ecref,53", "+dtlbm,11"))
        dirs = [pristine, second]
        sharded = reduce_experiments(dirs, parallelism=2, use_cache=False)
        sequential = reduce_experiments(dirs, parallelism=1, use_cache=False)
        assert (json.dumps(sharded.to_payload())
                == json.dumps(sequential.to_payload()))

    def test_merge_order_is_item_order(self, pristine, tmp_path):
        second = _collect_to(tmp_path / "ref", counters=("+ecref,53", "+dtlbm,11"))
        merged = reduce_experiments([pristine, second], use_cache=False)
        names = [info["name"] for info in merged.counter_info]
        assert names == ["ecstall", "ecrm", "ecref", "dtlbm"]


class TestJobsWarmRunParity:
    """``--jobs N`` + cache interaction: every shard's cache entry must be
    written on the cold run — a hit on one shard must not leave its
    siblings unwritten — so the warm run performs zero reduces."""

    def _four_dirs(self, tmp_path):
        dirs = [_collect_to(tmp_path / f"shard{i}") for i in range(4)]
        # mixed warm/cold start: one shard already cached, three not
        reduce_path(dirs[0])
        assert reduction_cache.cache_path(dirs[0]).exists()
        for directory in dirs[1:]:
            assert not reduction_cache.cache_path(directory).exists()
        return dirs

    @staticmethod
    def _cache_stats(dirs):
        stats = {}
        for directory in dirs:
            entry = reduction_cache.cache_path(directory)
            stat = entry.stat()
            stats[directory] = (stat.st_mtime_ns, stat.st_ino, stat.st_size)
        return stats

    def test_cold_jobs_run_writes_every_shard_cache(self, tmp_path):
        dirs = self._four_dirs(tmp_path)
        reduce_experiments(dirs, parallelism=4)
        for directory in dirs:
            assert reduction_cache.cache_path(directory).exists(), directory

    def test_warm_jobs_run_performs_zero_reduces(self, tmp_path):
        dirs = self._four_dirs(tmp_path)
        first = reduce_experiments(dirs, parallelism=4)
        before = self._cache_stats(dirs)
        second = reduce_experiments(dirs, parallelism=4)
        # a reduce would re-store its shard's entry (os.replace: new inode
        # and mtime); untouched entries prove every shard was a cache hit
        assert self._cache_stats(dirs) == before
        assert (json.dumps(second.to_payload())
                == json.dumps(first.to_payload()))

    def test_warm_erprint_jobs_run_matches_sequential(self, tmp_path, capsys):
        dirs = self._four_dirs(tmp_path)
        assert erprint_main(dirs + ["--jobs", "4", "functions"]) == 0
        capsys.readouterr()
        before = self._cache_stats(dirs)
        assert erprint_main(dirs + ["--jobs", "4", "functions"]) == 0
        warm = capsys.readouterr().out
        # zero reduces: no shard re-stored its entry (works across worker
        # processes, where an in-process counting patch would not)
        assert self._cache_stats(dirs) == before
        assert erprint_main(dirs + ["--no-cache", "functions"]) == 0
        assert capsys.readouterr().out == warm
