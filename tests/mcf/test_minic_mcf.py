"""Tests for the mini-C MCF port: hand-computed optima, and correctness
against the networkx optimum."""

import networkx as nx
import pytest

from repro.config import scaled_config, tiny_config
from repro.mcf.instance import (
    McfInstance,
    generate_instance,
    reference_optimal_cost,
)
from repro.mcf.sources import LayoutVariant, mcf_source, parse_mcf_stdout
from repro.mcf.workload import build_mcf, run_mcf
from repro.errors import WorkloadError


@pytest.fixture(scope="module")
def small_instance():
    return generate_instance(trips=40, seed=3, connections_per_trip=5)


@pytest.fixture(scope="module")
def baseline_program():
    return build_mcf(LayoutVariant.BASELINE)


class TestSource:
    def test_baseline_node_is_paper_layout(self, baseline_program):
        layout = baseline_program.structs["node"]
        assert layout.size == 120
        members = {name: offset for name, offset, _t in layout.members}
        assert members["child"] == 24
        assert members["orientation"] == 56
        assert members["potential"] == 88

    def test_arc_cost_at_32(self, baseline_program):
        layout = baseline_program.structs["arc"]
        members = {name: offset for name, offset, _t in layout.members}
        assert members["cost"] == 32
        assert layout.size == 64

    def test_optimized_node_is_128_bytes_hot_first(self):
        program = build_mcf(LayoutVariant.OPT_LAYOUT)
        layout = program.structs["node"]
        assert layout.size == 128
        hot = [name for name, offset, _t in layout.members if offset < 32]
        assert set(hot) == {"orientation", "child", "potential", "pred"}

    def test_paper_function_names_present(self, baseline_program):
        for name in (
            "refresh_potential", "primal_bea_mpp", "price_out_impl",
            "sort_basket", "update_tree", "primal_iminus", "flow_cost",
            "dual_feasible", "write_circulations", "read_min",
        ):
            assert baseline_program.function(name)

    def test_custom_defines_respected(self):
        source = mcf_source(LayoutVariant.BASELINE, defines={"GROUP_SIZE": 17})
        assert "#define GROUP_SIZE 17" in source
        assert "#define TWO_GROUPS 34" in source

    def test_stdout_parser(self):
        fields = parse_mcf_stdout("100\n0\n42\n0\n")
        assert fields == {
            "flow_cost": 100, "artificial_flow": 0,
            "iterations": 42, "dual_violations": 0,
        }
        with pytest.raises(WorkloadError):
            parse_mcf_stdout("1\n2\n")


class TestExecution:
    def test_matches_networkx_optimum(self, baseline_program, small_instance):
        run = run_mcf(baseline_program, small_instance, scaled_config(),
                      max_instructions=50_000_000)
        assert run.flow_cost == reference_optimal_cost(small_instance)
        assert run.solved_optimally

    def test_no_artificial_flow_and_dual_feasible(self, baseline_program, small_instance):
        run = run_mcf(baseline_program, small_instance, scaled_config(),
                      max_instructions=50_000_000)
        assert run.artificial_flow == 0
        assert run.dual_violations == 0

    def test_optimized_layout_same_answer(self, small_instance):
        program = build_mcf(LayoutVariant.OPT_LAYOUT)
        run = run_mcf(program, small_instance, scaled_config(),
                      max_instructions=50_000_000)
        assert run.flow_cost == reference_optimal_cost(small_instance)

    def test_hwcprof_compilation_same_answer(self, small_instance):
        prof = build_mcf(LayoutVariant.BASELINE, hwcprof=True)
        plain = build_mcf(LayoutVariant.BASELINE, hwcprof=False)
        r1 = run_mcf(prof, small_instance, scaled_config(), max_instructions=50_000_000)
        r2 = run_mcf(plain, small_instance, scaled_config(), max_instructions=50_000_000)
        assert r1.flow_cost == r2.flow_cost
        assert r1.iterations == r2.iterations

    def test_heap_pages_do_not_change_answer(self, baseline_program, small_instance):
        run = run_mcf(baseline_program, small_instance, scaled_config(),
                      heap_page_bytes=512 * 1024, max_instructions=50_000_000)
        assert run.flow_cost == reference_optimal_cost(small_instance)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_more_seeds(self, baseline_program, seed):
        inst = generate_instance(trips=30, seed=seed, connections_per_trip=4)
        run = run_mcf(baseline_program, inst, scaled_config(),
                      max_instructions=50_000_000)
        assert run.flow_cost == reference_optimal_cost(inst)

    def test_budget_exceeded_raises(self, baseline_program, small_instance):
        with pytest.raises(WorkloadError):
            run_mcf(baseline_program, small_instance, scaled_config(),
                    max_instructions=1000)

    def test_program_cache_reuses_builds(self):
        a = build_mcf(LayoutVariant.BASELINE)
        b = build_mcf(LayoutVariant.BASELINE)
        assert a is b
        c = build_mcf(LayoutVariant.BASELINE, use_cache=False)
        assert c is not a


class TestTinyInstances:
    """Optima small enough to compute by hand; networkx must agree."""

    @staticmethod
    def _optimum(program, instance) -> int:
        run = run_mcf(program, instance, scaled_config())
        assert run.solved_optimally
        assert run.flow_cost == reference_optimal_cost(instance)
        return run.flow_cost

    def test_single_path(self, baseline_program):
        inst = McfInstance(n=2, supplies=[3, -3], arcs=[(1, 2, 5, 7)])
        assert self._optimum(baseline_program, inst) == 21

    def test_chooses_cheap_path(self, baseline_program):
        inst = McfInstance(
            n=3, supplies=[1, 0, -1],
            arcs=[(1, 2, 5, 1), (2, 3, 5, 1), (1, 3, 5, 10)],
        )
        assert self._optimum(baseline_program, inst) == 2

    def test_capacity_forces_split(self, baseline_program):
        inst = McfInstance(
            n=3, supplies=[4, 0, -4],
            arcs=[(1, 2, 2, 1), (2, 3, 10, 1), (1, 3, 10, 5)],
        )
        # 2 units via 1-2-3 (cost 4), 2 units direct (cost 10)
        assert self._optimum(baseline_program, inst) == 14

    def test_upper_bound_flip(self, baseline_program):
        # parallel arcs: the cheap one saturates, the rest takes the other
        inst = McfInstance(
            n=2, supplies=[5, -5], arcs=[(1, 2, 3, 1), (1, 2, 10, 4)],
        )
        assert self._optimum(baseline_program, inst) == 3 + 8

    def test_zero_cost_network(self, baseline_program):
        inst = McfInstance(n=2, supplies=[1, -1], arcs=[(1, 2, 1, 0)])
        assert self._optimum(baseline_program, inst) == 0

    def test_infeasible_detected(self, baseline_program):
        # node 1 cannot reach node 3: its unit and node 3's demand both
        # stay on artificial arcs
        inst = McfInstance(n=3, supplies=[1, 0, -1], arcs=[(2, 3, 5, 1)])
        run = run_mcf(baseline_program, inst, scaled_config())
        assert run.artificial_flow == 2
        assert not run.solved_optimally
        with pytest.raises(nx.NetworkXUnfeasible):
            reference_optimal_cost(inst)
