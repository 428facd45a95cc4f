"""Property test: the simulated mini-C MCF agrees with networkx on random
instances."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import scaled_config
from repro.mcf.instance import generate_instance, reference_optimal_cost
from repro.mcf.sources import LayoutVariant
from repro.mcf.workload import build_mcf, run_mcf


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    trips=st.integers(min_value=5, max_value=25),
    connections=st.integers(min_value=2, max_value=6),
)
def test_minic_matches_networkx(seed, trips, connections):
    instance = generate_instance(trips=trips, seed=seed,
                                 connections_per_trip=connections)
    run = run_mcf(build_mcf(LayoutVariant.BASELINE), instance, scaled_config(),
                  max_instructions=20_000_000)
    assert run.flow_cost == reference_optimal_cost(instance)
    assert run.solved_optimally
