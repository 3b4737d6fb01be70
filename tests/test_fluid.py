"""The fluid steady-state solver against its exact-simulator oracle.

Pins the tentpole contracts of :mod:`repro.cluster.fluid`:

* **Stable regime is quantitative.** Across randomized fleets, rates,
  and shape mixes, throughput/goodput/$-per-Mtok agree with the
  event-driven simulator within a documented tolerance. The tolerance
  here (6%) is looser than the full-scale benchmark record (~0.2% at
  20k requests) because short runs carry drain-tail and sampling
  noise — the bound catches a broken model, not noise.
* **The saturation edge lands within one replica-step.** The smallest
  fleet the solver calls serveable really serves, and one step below
  the edge the simulator visibly drowns.
* **Overload is flagged, never extrapolated.** Past saturation the
  report pins throughput to capacity, waits go infinite, attainment
  goes to zero — and says so.
* **Grid and scalar solves agree**, and the tiered class→tier fixed
  point conserves flow.
* **Stations come from one probe replica per spec**, and report exactly
  what grouping the whole built fleet gave.
"""

import math
import random

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    JoinShortestQueueRouter,
    ReplicaSpec,
)
from repro.cluster import fluid
from repro.analysis.cost import price_rate
from repro.engine.backend import parse_backend
from repro.engine.inference import MemoryCapacityError
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import iter_poisson_arrivals
from repro.serving.slo import SLO
from repro.workloads.classes import DEFAULT_CLASS_MIX

# Documented stable-regime tolerance at short (2k-request) runs; the
# benchmark suite records ~0.2% at full scale (20k requests/point).
STABLE_REL_TOL = 0.06
SIM_REQUESTS = 2_000


def _fleet(platform_key: str, count: int, max_batch: int) -> ClusterConfig:
    return ClusterConfig([ReplicaSpec(
        get_platform(platform_key), get_model("llama2-7b"),
        count=count, max_batch=max_batch)])


def _simulate(config: ClusterConfig, rate: float, spec=None,
              count: int = SIM_REQUESTS, seed: int = 0):
    arrivals = list(iter_poisson_arrivals(rate, count=count, spec=spec,
                                          seed=seed))
    report = ClusterSimulator(config.build_fleet(),
                              JoinShortestQueueRouter()).run(iter(arrivals))
    return report, arrivals


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stable_regime_matches_simulator(seed):
    """Randomized stable-regime points: fluid vs exact within tolerance."""
    rng = random.Random(seed)
    count = rng.choice([2, 3, 4])
    max_batch = rng.choice([4, 8])
    config = _fleet("spr", count, max_batch)
    capacity = fluid.saturation_rate(config)
    rate = rng.uniform(0.3, 0.6) * capacity

    report = fluid.solve(config, rate)
    assert report.regime == fluid.REGIME_STABLE
    sim, arrivals = _simulate(config, rate, seed=seed)

    slo = SLO()
    sim_throughput = sim.throughput
    sim_goodput = sim.goodput(arrivals, slo)
    sim_dollars = sim.dollars_per_million_tokens()
    assert report.throughput_tokens_per_s == pytest.approx(
        sim_throughput, rel=STABLE_REL_TOL)
    assert report.goodput_tokens_per_s == pytest.approx(
        sim_goodput, rel=STABLE_REL_TOL)
    assert report.dollars_per_mtok == pytest.approx(
        sim_dollars, rel=STABLE_REL_TOL)
    assert abs(report.attainment - sim.attainment(arrivals, slo)) <= 0.05


def test_saturation_edge_within_one_replica_step():
    """The smallest serveable fleet serves; one step below, it drowns."""
    rate = 2.5 * fluid.saturation_rate(_fleet("spr", 1, 8))
    k_star = next(k for k in range(1, 12)
                  if not fluid.solve(_fleet("spr", k, 8), rate).overloaded)
    assert k_star > 1  # the sweep actually crosses the edge

    # At k* the simulator keeps up: it serves the offered window at the
    # offered rate (the drain tail adds slack, hence the 1.25 factor).
    sim, _ = _simulate(_fleet("spr", k_star, 8), rate, count=1_200)
    offered_window = 1_200 / rate
    assert sim.makespan_s <= 1.25 * offered_window

    # One replica-step below the edge the backlog is visible: the run
    # takes far longer than the arrival window.
    sim_under, _ = _simulate(_fleet("spr", k_star - 1, 8), rate,
                             count=1_200)
    assert sim_under.makespan_s >= 1.10 * offered_window


def test_overload_is_flagged_not_extrapolated():
    config = _fleet("spr", 2, 8)
    capacity = fluid.saturation_rate(config)
    report = fluid.solve(config, 1.5 * capacity)
    assert report.overloaded
    assert report.regime == fluid.REGIME_OVERLOADED
    assert report.attainment == 0.0
    assert math.isinf(report.mean_ttft_s)
    # Throughput pins to capacity: doubling the offered load changes
    # nothing about what actually gets served.
    doubled = fluid.solve(config, 3.0 * capacity)
    assert doubled.throughput_tokens_per_s == pytest.approx(
        report.throughput_tokens_per_s, rel=1e-6)


def test_solve_grid_matches_scalar_solves():
    config = _fleet("spr", 3, 8)
    rates = [1.0, 4.0, 9.0]
    grid = fluid.solve_grid([fluid.FluidScenario(config=config,
                                                 rate_per_s=rate)
                             for rate in rates])
    for rate, from_grid in zip(rates, grid):
        scalar = fluid.solve(config, rate)
        assert from_grid.throughput_tokens_per_s == pytest.approx(
            scalar.throughput_tokens_per_s, rel=1e-12)
        assert from_grid.mean_ttft_s == pytest.approx(
            scalar.mean_ttft_s, rel=1e-12)


def test_saturation_rate_brackets_the_regime_flip():
    config = _fleet("spr", 3, 8)
    capacity = fluid.saturation_rate(config)
    assert not fluid.solve(config, 0.99 * capacity).overloaded
    assert fluid.solve(config, 1.01 * capacity).overloaded


def test_tiered_mix_conserves_flow():
    """Class→tier fixed point: converged, flow-conserving, bounded."""
    config = ClusterConfig([
        ReplicaSpec(get_platform("icl"), get_model("llama2-7b"),
                    count=2, max_batch=8),
        ReplicaSpec(get_platform("spr"), get_model("llama2-13b"),
                    count=2, max_batch=8),
    ])
    rate = 1.2
    report = fluid.solve(config, rate, mix=DEFAULT_CLASS_MIX)
    assert report.converged
    # Admitted station flow equals the offered rate (nothing vanishes).
    total = sum(s.rate_per_s for s in report.stations)
    assert total == pytest.approx(rate, rel=1e-3)
    # Per-class rates mirror the mix shares.
    for klass in report.classes:
        assert klass.rate_per_s == pytest.approx(rate * klass.share,
                                                 rel=1e-6)
        assert 0.0 <= klass.attainment <= 1.0
    # Both tiers exist in the report even if one carries no flow.
    assert len(report.stations) == 2


def test_large_fleet_stays_finite():
    """32 replicas x batch 64 near saturation: no overflow, no NaN.

    Regression: the birth-death chain used to accumulate un-normalized
    running products, which overflow to inf at k*B in the thousands and
    turn every statistic NaN after normalization.
    """
    config = _fleet("spr", 32, 64)
    capacity = fluid.saturation_rate(config)
    assert math.isfinite(capacity)
    report = fluid.solve(config, 0.9 * capacity)

    assert not report.overloaded
    assert math.isfinite(report.throughput_tokens_per_s)
    assert math.isfinite(report.goodput_tokens_per_s)
    assert math.isfinite(report.mean_ttft_s)
    assert math.isfinite(report.tpot_s)
    assert math.isfinite(report.dollars_per_mtok)
    assert 0.0 <= report.attainment <= 1.0
    for station in report.stations:
        assert math.isfinite(station.p_wait)
        assert 0.0 <= station.p_wait <= 1.0
        assert math.isfinite(station.mean_wait_s)
        assert math.isfinite(station.utilization)
        assert 0.0 <= station.utilization <= 1.0
        assert sum(station.occupancy) == pytest.approx(1.0, abs=1e-6)


def test_rejects_empty_and_nonsense_inputs():
    config = _fleet("spr", 1, 8)
    with pytest.raises(ValueError):
        fluid.solve(config, 0.0)
    with pytest.raises(ValueError):
        fluid.solve(config, -1.0)
    with pytest.raises(ValueError):
        fluid.solve(ClusterConfig(replicas=()), 1.0)
    with pytest.raises(ValueError):
        fluid.solve(config, 1.0, router="no-such-router")


# -- station construction ----------------------------------------------------


def _fleet_built_stations(config: ClusterConfig):
    """Stations grouped from every built replica (the reference grouping)."""
    by_tier = {}
    for node in config.build_fleet():
        by_tier.setdefault(node.tier, []).append(node)
    return [fluid._Station(nodes[0], [price_rate(n.platform.name, n.price_usd)
                                      for n in nodes])
            for nodes in by_tier.values()]


def _station_configs():
    spr, icl, a100 = (get_platform(k) for k in ("spr", "icl", "a100"))
    llama7, llama13 = get_model("llama2-7b"), get_model("llama2-13b")
    return [
        # CPU/GPU/hybrid mix with a price override on the hybrid group.
        ClusterConfig([
            ReplicaSpec(spr, llama7, count=2),
            ReplicaSpec(spr, llama7, count=1,
                        backend=parse_backend("int8-tp2")),
            ReplicaSpec(a100, llama7, count=1),
            ReplicaSpec(spr, llama7, count=1,
                        backend=parse_backend("hybrid:a100"),
                        price_usd=31_000.0),
        ]),
        # Two specs on one tier, not adjacent, with different batch
        # limits and prices: the first spec's replica is the probe and
        # prices sum per replica in fleet order.
        ClusterConfig([
            ReplicaSpec(spr, llama7, count=2, max_batch=8),
            ReplicaSpec(icl, llama13, count=2, price_usd=7_777.5),
            ReplicaSpec(spr, llama7, count=3, max_batch=16,
                        price_usd=12_345.25),
        ]),
    ]


@pytest.mark.parametrize("index", [0, 1])
def test_probe_stations_match_fleet_built_grouping(index):
    config = _station_configs()[index]
    reference = _fleet_built_stations(config)
    mix = (("simple", 0.5), ("standard", 0.3), ("reasoning", 0.2))
    for rate in (0.5, 3.0, 40.0):
        assert fluid.solve(config, rate) == \
            fluid.solve(config, rate, _stations=reference)
        assert fluid.solve(config, rate, mix=mix) == \
            fluid.solve(config, rate, mix=mix, _stations=reference)
    scenarios = [fluid.FluidScenario(config=config, rate_per_s=rate)
                 for rate in (1.0, 6.0)]
    assert fluid.solve_grid(scenarios, router="uniform") == [
        fluid.solve(config, s.rate_per_s, router="uniform",
                    _stations=reference) for s in scenarios]


def test_station_that_does_not_fit_still_raises():
    config = ClusterConfig([
        ReplicaSpec(get_platform("spr"), get_model("llama2-7b")),
        ReplicaSpec(get_platform("a100"), get_model("opt-66b")),
    ])
    with pytest.raises(MemoryCapacityError):
        fluid.solve(config, 1.0)


def _full_bisection_quantile(components, q):
    """`_mixture_quantile` with all 80 bisection passes run."""
    total = sum(w for w, _ in components)
    lo = min(c.t0_s for _, c in components)
    hi = max(c.t0_s for _, c in components) + 1e-9
    while sum(w * c.ttft_cdf(hi) for w, c in components) / total < q:
        hi *= 2.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if sum(w * c.ttft_cdf(mid) for w, c in components) / total >= q:
            hi = mid
        else:
            lo = mid
    return hi


def test_quantile_bisection_stops_at_its_fixed_point():
    flow = fluid._resolve_flows(None, None, None, None)[0]
    components = [
        (rate, fluid._ClassAtStation(
            flow=flow, rate_per_s=rate, t0_s=t0, p_wait=p_wait,
            theta=theta, mean_ttft_s=0.0, tpot_s=0.0, attainment=0.0,
            overloaded=False))
        for rate, t0, p_wait, theta in ((2.0, 0.03, 0.4, 9.0),
                                        (1.0, 0.11, 0.05, 50.0),
                                        (0.5, 1e-4, 0.9, 0.7),
                                        (0.2, 0.02, 0.0, math.inf))]
    for q in (0.05, 0.5, 0.9, 0.99, 0.999):
        assert fluid._mixture_quantile(components, q) == \
            _full_bisection_quantile(components, q)
