"""Unit tests for the reduced-data model (MetricVector, merging,
effectiveness math)."""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_executable
from repro.analyze.model import (
    SCALARS,
    DataObjectKey,
    MetricVector,
    PCRecord,
    ReducedData,
    UNASCERTAINABLE,
    UNRESOLVABLE,
)


@pytest.fixture(scope="module")
def program():
    return build_executable("long main(long *i, long n) { return 0; }")


class TestMetricVector:
    def test_defaults_to_zero(self):
        v = MetricVector()
        assert v["anything"] == 0.0

    def test_add(self):
        v = MetricVector()
        v.add("ecrm", 5)
        v.add("ecrm", 2)
        assert v["ecrm"] == 7

    def test_merged_with_is_pure(self):
        a = MetricVector()
        a.add("x", 1)
        b = MetricVector()
        b.add("x", 2)
        b.add("y", 3)
        merged = a.merged_with(b)
        assert merged["x"] == 3 and merged["y"] == 3
        assert a["x"] == 1 and b["x"] == 2  # inputs untouched

    def test_a_missing_metric_is_stored_as_zero(self):
        v = MetricVector({"ecrm": 2.0})
        assert v.get("ecref") is None and "ecref" not in v
        assert v["ecref"] == 0.0 and "ecref" in v

    def test_copies_and_pickles_as_a_metric_vector(self):
        v = MetricVector({"ecrm": 2.0})
        for copy in (MetricVector(v), pickle.loads(pickle.dumps(v))):
            assert type(copy) is MetricVector and copy == v
            copy["new"] += 1.0
        assert v == {"ecrm": 2.0}


class TestReducedData:
    def test_percent_of_zero_total(self, program):
        reduced = ReducedData(program, 1e8)
        assert reduced.percent("ecrm", 10) == 0.0

    def test_seconds_conversion(self, program):
        reduced = ReducedData(program, 1e8)
        assert reduced.seconds("ecstall", 1e8) == pytest.approx(1.0)

    def test_record_pc_idempotent(self, program):
        reduced = ReducedData(program, 1e8)
        a = reduced.record_pc(0x1000)
        b = reduced.record_pc(0x1000)
        assert a is b and isinstance(a, PCRecord)

    def test_effectiveness_math(self, program):
        reduced = ReducedData(program, 1e8)
        reduced.total.add("ecrm", 100)
        reduced.data_objects[UNRESOLVABLE].add("ecrm", 3)
        reduced.data_objects[UNASCERTAINABLE].add("ecrm", 2)
        assert reduced.backtrack_effectiveness("ecrm") == pytest.approx(95.0)

    def test_effectiveness_empty_metric(self, program):
        reduced = ReducedData(program, 1e8)
        assert reduced.backtrack_effectiveness("ecrm") == 0.0

    def test_unknown_total_sums_kinds(self, program):
        reduced = ReducedData(program, 1e8)
        reduced.data_objects[UNRESOLVABLE].add("ecrm", 3)
        reduced.data_objects[UNASCERTAINABLE].add("ecref", 4)
        unknown = reduced.unknown_total()
        assert unknown["ecrm"] == 3 and unknown["ecref"] == 4

    def test_merge_combines_everything(self, program):
        a = ReducedData(program, 1e8)
        b = ReducedData(program, 1e8)
        a.metric_ids = ["user_cpu"]
        b.metric_ids = ["ecrm"]
        a.total.add("user_cpu", 10)
        b.total.add("ecrm", 5)
        a.functions["f"].add("user_cpu", 10)
        b.functions["f"].add("ecrm", 5)
        a.record_pc(0x10).metrics.add("user_cpu", 10)
        b.record_pc(0x10).metrics.add("ecrm", 5)
        b.address_samples["ecrm"].append((0x2000, 5))
        merged = a.merged_with(b)
        assert merged.metric_ids == ["user_cpu", "ecrm"]
        assert merged.total["user_cpu"] == 10 and merged.total["ecrm"] == 5
        assert merged.functions["f"]["ecrm"] == 5
        assert merged.pcs[0x10].metrics["user_cpu"] == 10
        assert merged.address_samples["ecrm"] == [(0x2000, 5)]

    def test_merge_keeps_branch_target_flag(self, program):
        a = ReducedData(program, 1e8)
        b = ReducedData(program, 1e8)
        a.record_pc(0x10)
        b.record_pc(0x10).is_branch_target_artifact = True
        merged = a.merged_with(b)
        assert merged.pcs[0x10].is_branch_target_artifact


# ------------------------------------------------------------ absorbing

METRICS = st.sampled_from(["user_cpu", "ecstall", "ecrm", "ecref", "dtlbm"])
#: event weights are integral, as in real reductions (exact float sums)
VECTORS = st.dictionaries(
    METRICS, st.integers(1, 10**6).map(float), max_size=4,
).map(MetricVector)
NAMES = st.sampled_from(["main", "f", "g"])
LABELS = st.sampled_from(["structure:a", "structure:a.x", SCALARS, UNRESOLVABLE])
LINE_BASES = st.integers(0, 3).map(lambda i: 512 * i)
PAGE_BASES = st.integers(0, 3).map(lambda i: 8192 * i)
SEGMENTS = st.sampled_from(["heap", "stack"])
#: a key strategy for every per-key vector table
TABLE_KEYS = {
    "functions": NAMES,
    "functions_incl": NAMES,
    "caller_callee": st.tuples(NAMES, NAMES),
    "lines": st.tuples(NAMES, st.integers(1, 4)),
    "data_objects": LABELS,
    "data_members": st.builds(
        DataObjectKey, st.sampled_from(["structure:a", "structure:b"]),
        st.sampled_from([0, 8]), st.sampled_from(["x", "y"]), st.just("long"),
    ),
    "cache_lines": LINE_BASES,
    "pages": st.tuples(SEGMENTS, PAGE_BASES),
    "cache_line_objects": st.tuples(LINE_BASES, LABELS),
    "page_objects": st.tuples(SEGMENTS, PAGE_BASES, LABELS),
    "threads": st.integers(0, 3),
    "cache_line_writers": st.tuples(LINE_BASES, st.integers(0, 3)),
}


@st.composite
def reductions(draw, code_len=40):
    """Detached reductions over one program, filling every table with
    keys two draws often share, and machine totals that may be zero."""
    reduced = ReducedData(None, 9e8)
    reduced.code_len = code_len
    reduced.metric_ids = draw(st.lists(METRICS, unique=True))
    reduced.total = draw(VECTORS)
    for pc in draw(st.lists(st.integers(0, 7), unique=True, max_size=6)):
        data_object = draw(st.sampled_from(
            ["", "structure:a", "structure:b", UNRESOLVABLE]))
        member = draw(st.sampled_from(["", "x", "y"])) if data_object else ""
        reduced.pcs[0x1000 + 4 * pc] = PCRecord(
            0x1000 + 4 * pc, draw(VECTORS), draw(st.booleans()),
            data_object, member)
    for name, keys in TABLE_KEYS.items():
        getattr(reduced, name).update(
            draw(st.dictionaries(keys, VECTORS, max_size=3)))
    samples = st.lists(st.tuples(st.integers(0, 4096), st.integers(1, 9)
                                 .map(float)), max_size=3)
    reduced.address_samples.update(draw(st.dictionaries(METRICS, samples,
                                                        max_size=2)))
    reduced.latency_samples.update(draw(st.dictionaries(METRICS, samples,
                                                        max_size=2)))
    reduced.machine_totals = draw(st.dictionaries(
        st.sampled_from(["cycles", "ec_refs", "dtlb_misses"]),
        st.integers(0, 3), max_size=3))
    reduced.segments = draw(st.lists(st.tuples(
        SEGMENTS, PAGE_BASES, st.just(65536), st.just(8192)), max_size=2))
    reduced.allocations = draw(st.lists(st.tuples(
        PAGE_BASES, st.just(64), st.integers(0, 2), st.integers(3, 4),
        st.just(0x1000)), max_size=2))
    reduced.counter_info = [
        {"name": name, "interval": 13}
        for name in draw(st.lists(METRICS, max_size=2))
    ]
    reduced.incomplete = draw(st.booleans())
    reduced.incomplete_reason = (
        draw(st.sampled_from(["SIGKILL", "damaged; SIGKILL"]))
        if reduced.incomplete else "")
    return reduced


def _bytes(reduced: ReducedData) -> tuple:
    return (json.dumps(reduced.to_payload()),
            json.dumps(reduced.canonical_payload()))


class TestAbsorb:
    @settings(max_examples=150, deadline=None)
    @given(reductions(), reductions())
    def test_absorb_equals_merged_with(self, a, b):
        a_before, b_before = _bytes(a), _bytes(b)
        expected = a.merged_with(b)
        assert _bytes(a) == a_before  # merged_with stays pure
        assert a.absorb(b) is a
        assert _bytes(a) == _bytes(expected)
        assert _bytes(b) == b_before

    @settings(max_examples=50, deadline=None)
    @given(reductions(code_len=40), reductions(code_len=44))
    def test_program_mismatch_leaves_the_target_untouched(self, a, b):
        before = _bytes(a)
        with pytest.raises(ValueError, match="different programs"):
            a.absorb(b)
        assert _bytes(a) == before

    def test_absorbing_itself_is_refused(self, program):
        reduced = ReducedData(program, 1e8)
        reduced.total.add("ecrm", 5)
        with pytest.raises(ValueError):
            reduced.absorb(reduced)
        assert reduced.total == {"ecrm": 5.0}
        assert reduced.merged_with(reduced).total == {"ecrm": 10.0}

    def test_a_lazy_image_is_loaded_and_checked_on_read(self, program, tmp_path):
        image = tmp_path / "program.pkl"
        program.save(image)
        reduced = ReducedData(program, 1e8).detach().attach(image)
        loaded = reduced.program
        assert len(loaded.code) == len(program.code)
        assert reduced.program is loaded
        other = ReducedData(program, 1e8).detach()
        other.code_len += 1
        other.attach(image)
        with pytest.raises(ValueError, match="program mismatch"):
            other.program
