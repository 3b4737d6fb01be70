"""Cluster-layer tests: node stepping, routing, failures, autoscaling.

The load-bearing guarantee is exact parity: one replica driven by the
cluster event loop must reproduce ``run_continuous`` timing to the bit,
because they are the same scheduling code reached through two drivers.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cluster import (
    Autoscaler,
    ClusterConfig,
    ClusterSimulator,
    InvalidArrivalError,
    JoinShortestQueueRouter,
    LeastOutstandingTokensRouter,
    NodeFailure,
    NodeTemplate,
    PhaseAwareRouter,
    ReplicaNode,
    ReplicaSpec,
    RoundRobinRouter,
    ShardRouter,
    run_sharded,
)
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.serving.arrivals import (
    ArrivingRequest,
    bursty_arrivals,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serving.scheduler import BatchingSimulator
from repro.serving.slo import SLO
from repro.workloads.generator import WorkloadSpec, chatbot_workload
from repro.workloads.tenancy import TenantRequest

SPR = get_platform("spr")
H100 = get_platform("h100")
LLAMA = get_model("llama2-7b")
OPT = get_model("opt-1.3b")


def spr_node(name="spr-0", model=LLAMA):
    return ReplicaNode(name, SPR, model)


def decode_heavy_spec():
    return WorkloadSpec(name="agentic", input_len_range=(16, 64),
                        output_len_range=(96, 192), batch_size=1,
                        priority_metric="tpot_s")


class TestReplicaNode:
    def test_idle_node_has_no_event(self):
        assert spr_node().next_event_time() is None

    def test_submit_sets_next_event_to_ready_time(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 1.5, 64, 16))
        assert node.next_event_time() == 1.5

    def test_requeued_request_is_ready_at_requeue_time(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 1.5, 64, 16), ready_s=4.0)
        assert node.next_event_time() == 4.0

    def test_advance_runs_one_iteration(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 0.0, 64, 4))
        node.advance()
        assert node.iterations == 1
        assert len(node.running) == 1
        assert node.clock > 0

    def test_node_completes_request(self):
        node = spr_node()
        request = ArrivingRequest(0, 0.0, 64, 4)
        node.submit(request)
        while node.has_work:
            node.advance()
        assert len(node.completed) == 1
        assert node.generated_tokens == request.output_len
        assert node.completed[0].ttft_s > 0

    def test_fail_returns_lost_work_and_wasted_tokens(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 0.0, 64, 32))
        node.submit(ArrivingRequest(1, 0.0, 64, 32))
        node.advance()  # both admitted: first token + one decode step
        lost, wasted = node.fail()
        assert {r.request_id for r in lost} == {0, 1}
        assert wasted == 4  # 2 sequences x 2 generated tokens
        assert not node.active and not node.has_work

    def test_outstanding_tokens_counts_queued_and_running(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 0.0, 100, 10))
        assert node.outstanding_tokens == 110
        node.advance()
        # Admitted: first token + one decode step generated.
        assert node.outstanding_tokens == 108

    def test_backlog_grows_with_queued_work(self):
        node = spr_node()
        node.submit(ArrivingRequest(0, 0.0, 256, 64))
        one = node.backlog_s(0.0)
        node.submit(ArrivingRequest(1, 0.0, 256, 64))
        assert node.backlog_s(0.0) > one

    def test_needs_platform_or_simulator(self):
        with pytest.raises(ValueError, match="platform"):
            ReplicaNode("nameless")


class TestSingleReplicaParity:
    """One replica through the event loop == run_continuous, exactly."""

    @pytest.mark.parametrize("rate,seed", [(0.5, 0), (1.0, 7)])
    def test_exact_parity_at_low_rate(self, rate, seed):
        arrivals = poisson_arrivals(rate, 16, chatbot_workload(), seed=seed)
        single = BatchingSimulator(SPR, LLAMA, max_batch=8).run_continuous(
            arrivals)
        cluster = ClusterSimulator([spr_node()],
                                   RoundRobinRouter()).run(arrivals)
        by_id = {r.request_id: r for r in cluster.completed}
        assert len(cluster.completed) == len(single.completed)
        for record in single.completed:
            twin = by_id[record.request_id]
            assert twin.ttft_s == record.ttft_s
            assert twin.finish_s == record.finish_s
            assert twin.start_s == record.start_s
        assert cluster.makespan_s == single.makespan_s
        assert cluster.generated_tokens == single.generated_tokens


class TestRouters:
    def fleet(self):
        return [spr_node("a", OPT), spr_node("b", OPT)]

    def test_round_robin_cycles(self):
        nodes = self.fleet()
        router = RoundRobinRouter()
        request = ArrivingRequest(0, 0.0, 64, 16)
        picks = [router.select(request, nodes, 0.0).name for _ in range(4)]
        assert picks == ["a", "b", "a", "b"]

    def test_jsq_prefers_shorter_queue(self):
        nodes = self.fleet()
        nodes[0].submit(ArrivingRequest(0, 0.0, 64, 16))
        router = JoinShortestQueueRouter()
        assert router.select(ArrivingRequest(1, 0.0, 64, 16),
                             nodes, 0.0).name == "b"

    def test_least_tokens_weighs_request_size(self):
        nodes = self.fleet()
        # "a" has one tiny request, "b" one huge one: JSQ ties, token
        # counting does not.
        nodes[0].submit(ArrivingRequest(0, 0.0, 16, 4))
        nodes[1].submit(ArrivingRequest(1, 0.0, 1024, 512))
        router = LeastOutstandingTokensRouter()
        assert router.select(ArrivingRequest(2, 0.0, 64, 16),
                             nodes, 0.0).name == "a"

    def test_draining_and_failed_nodes_not_routable(self):
        nodes = self.fleet()
        nodes[0].drain()
        router = RoundRobinRouter()
        assert router.select(ArrivingRequest(0, 0.0, 64, 16),
                             nodes, 0.0).name == "b"
        nodes[1].fail()
        with pytest.raises(RuntimeError, match="no routable replica"):
            router.select(ArrivingRequest(1, 0.0, 64, 16), nodes, 0.0)


class TestPhaseAwareRouter:
    def hetero(self):
        return [ReplicaNode("spr-0", SPR, LLAMA),
                ReplicaNode("h100-0", H100, LLAMA)]

    def test_prefill_heavy_goes_to_compute_rich(self):
        router = PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2))
        pick = router.select(ArrivingRequest(0, 0.0, 1024, 16),
                             self.hetero(), 0.0)
        assert pick.name == "h100-0"

    def test_decode_heavy_goes_to_bandwidth_rich(self):
        router = PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2))
        pick = router.select(ArrivingRequest(0, 0.0, 32, 256),
                             self.hetero(), 0.0)
        assert pick.name == "spr-0"

    def test_slo_infeasible_node_overflows(self):
        nodes = self.hetero()
        # Bury the SPR node in decode work until its projected TTFT
        # breaks the SLO; decode-heavy traffic must overflow to the GPU.
        for i in range(8):
            nodes[0].submit(ArrivingRequest(i, 0.0, 32, 256))
        nodes[0].advance()
        router = PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2))
        pick = router.select(ArrivingRequest(99, 0.0, 32, 256), nodes, 0.0)
        assert pick.name == "h100-0"

    def test_no_feasible_node_degrades_to_earliest_finish(self):
        nodes = self.hetero()
        router = PhaseAwareRouter(slo=SLO(ttft_s=1e-6, tpot_s=1e-6))
        # Nothing is feasible; the router must still pick someone.
        pick = router.select(ArrivingRequest(0, 0.0, 64, 16), nodes, 0.0)
        assert pick.name in {"spr-0", "h100-0"}

    def test_cost_band_validated(self):
        with pytest.raises(ValueError, match="cost_band"):
            PhaseAwareRouter(cost_band=1.5)


class TestFailures:
    def test_failure_requeues_without_losing_requests(self):
        arrivals = poisson_arrivals(2.0, 24, chatbot_workload(), seed=23)
        report = ClusterSimulator(
            [spr_node("spr-0"), spr_node("spr-1")],
            LeastOutstandingTokensRouter(),
            events=[NodeFailure(time_s=3.0, node="spr-1")]).run(arrivals)
        assert report.requeued_requests >= 1
        assert report.wasted_tokens >= 1
        assert len(report.completed) == len(arrivals)
        assert ({r.request_id for r in report.completed}
                == {r.request_id for r in arrivals})
        stats = {s.name: s for s in report.node_stats}
        assert stats["spr-1"].failed and not stats["spr-0"].failed
        assert any("FAILED" in line for line in report.events)

    def test_requeued_request_keeps_charging_ttft(self):
        arrivals = poisson_arrivals(2.0, 24, chatbot_workload(), seed=23)
        nodes = lambda: [spr_node("spr-0"), spr_node("spr-1")]
        clean = ClusterSimulator(nodes(),
                                 LeastOutstandingTokensRouter()).run(arrivals)
        failed = ClusterSimulator(
            nodes(), LeastOutstandingTokensRouter(),
            events=[NodeFailure(time_s=3.0, node="spr-1")]).run(arrivals)
        # Losing a replica mid-trace cannot improve aggregate latency.
        assert failed.mean_ttft_s >= clean.mean_ttft_s

    def test_last_replica_failing_raises(self):
        arrivals = poisson_arrivals(2.0, 8, chatbot_workload(), seed=0)
        simulator = ClusterSimulator(
            [spr_node("only")], RoundRobinRouter(),
            events=[NodeFailure(time_s=0.5, node="only")])
        with pytest.raises(RuntimeError, match="no routable replica"):
            simulator.run(arrivals)


class TestAutoscaler:
    def template(self):
        return NodeTemplate(SPR, LLAMA)

    def test_scales_up_on_deep_queue(self):
        scaler = Autoscaler(self.template(), scale_up_queue_per_node=2.0)
        node = spr_node()
        for i in range(5):
            node.submit(ArrivingRequest(i, 0.0, 64, 16))
        assert scaler.decide([node], provisioning=0) == "up"
        # A replica already on order dampens repeat scale-ups only via
        # max_nodes; the queue is still deep relative to active nodes.
        scaler_capped = Autoscaler(self.template(), max_nodes=1,
                                   scale_up_queue_per_node=2.0)
        assert scaler_capped.decide([node], provisioning=0) is None

    def test_scales_down_when_idle(self):
        scaler = Autoscaler(self.template(), min_nodes=1)
        nodes = [spr_node("a"), spr_node("b")]
        assert scaler.decide(nodes, provisioning=0) == "down"
        # ...but never below min_nodes.
        assert scaler.decide([spr_node("a")], provisioning=0) is None

    def test_provisioning_lag_separates_order_from_online(self):
        burst = bursty_arrivals(0.2, 3.0, 16, decode_heavy_spec(),
                                burst_s=20.0, period_s=120.0, seed=23)
        scaler = Autoscaler(self.template(), max_nodes=3,
                            scale_up_queue_per_node=2.0,
                            provisioning_lag_s=6.0, sample_interval_s=1.0)
        report = ClusterSimulator([spr_node()], JoinShortestQueueRouter(),
                                  autoscaler=scaler).run(burst)
        assert len(report.node_stats) > 1
        ordered = [line for line in report.events if "scale-up" in line]
        online = [line for line in report.events
                  if "online" in line and "scale-up" not in line]
        assert ordered and online
        order_t = float(ordered[0].split("t=")[1].split("s")[0])
        online_t = float(online[0].split("t=")[1].split("s")[0])
        assert online_t == pytest.approx(order_t + 6.0)

    def test_thresholds_validated(self):
        with pytest.raises(ValueError, match="scale_down"):
            Autoscaler(self.template(), scale_up_queue_per_node=1.0,
                       scale_down_queue_per_node=2.0)
        with pytest.raises(ValueError, match="max_nodes"):
            Autoscaler(self.template(), min_nodes=4, max_nodes=2)


class TestClusterReport:
    @pytest.fixture(scope="class")
    def report_and_arrivals(self):
        prefill = bursty_arrivals(0.4, 2.0, 8, None, burst_s=5.0,
                                  period_s=30.0, seed=1)
        decode = bursty_arrivals(0.4, 2.0, 8, decode_heavy_spec(),
                                 burst_s=5.0, period_s=30.0, seed=2)
        arrivals = merge_arrivals(prefill, decode)
        fleet = [ReplicaNode("spr-0", SPR, LLAMA),
                 ReplicaNode("h100-0", H100, LLAMA)]
        router = PhaseAwareRouter(slo=SLO(ttft_s=2.0, tpot_s=0.2))
        return ClusterSimulator(fleet, router).run(arrivals), arrivals

    def test_fleet_accounting(self, report_and_arrivals):
        report, arrivals = report_and_arrivals
        assert len(report.completed) == len(arrivals)
        assert report.generated_tokens == sum(r.output_len
                                              for r in arrivals)
        assert report.throughput > 0
        assert 0 < report.mean_ttft_s
        for stats in report.node_stats:
            assert 0 <= stats.utilization <= 1

    def test_cost_metrics(self, report_and_arrivals):
        report, _ = report_and_arrivals
        assert report.fleet_price_usd == pytest.approx(9_900 + 30_000)
        assert report.dollars_per_million_tokens() > 0
        # Longer amortization -> cheaper tokens, proportionally.
        assert (report.dollars_per_million_tokens(6.0)
                == pytest.approx(report.dollars_per_million_tokens(3.0) / 2))

    def test_slo_scoring_delegates_to_serving(self, report_and_arrivals):
        report, arrivals = report_and_arrivals
        slo = SLO(ttft_s=2.0, tpot_s=0.2)
        assert 0 <= report.attainment(arrivals, slo) <= 1
        assert report.goodput(arrivals, slo) <= report.throughput * 1.001
        assert report.to_serving_report().policy == "cluster/phase_aware"

    def test_queue_timeline_is_time_ordered(self, report_and_arrivals):
        report, _ = report_and_arrivals
        times = [t for t, _depth in report.queue_depth_timeline]
        assert times == sorted(times)


class TestClusterValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ClusterSimulator([], RoundRobinRouter())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ClusterSimulator([spr_node("a"), spr_node("a")],
                             RoundRobinRouter())

    def test_empty_arrivals_rejected(self):
        simulator = ClusterSimulator([spr_node()], RoundRobinRouter())
        with pytest.raises(ValueError, match="no arrivals"):
            simulator.run([])


class TestArrivalValidation:
    """Out-of-domain arrivals raise a named error as they are pulled."""

    @pytest.mark.parametrize("arrival_s", [-1.0, float("inf"),
                                           float("-inf")])
    def test_bad_arrival_time_rejected(self, arrival_s):
        simulator = ClusterSimulator([spr_node()], RoundRobinRouter())
        with pytest.raises(InvalidArrivalError, match="arrival_s"):
            simulator.run([ArrivingRequest(0, arrival_s, 32, 8)])

    @pytest.mark.parametrize("input_len, output_len",
                             [(0, 8), (32, 0), (-3, 8), (32, -1)])
    def test_empty_lengths_rejected(self, input_len, output_len):
        simulator = ClusterSimulator([spr_node()], RoundRobinRouter())
        arrivals = [ArrivingRequest(0, 0.0, 32, 8),
                    ArrivingRequest(1, 0.5, input_len, output_len)]
        with pytest.raises(InvalidArrivalError, match="input_len"):
            simulator.run(arrivals)

    def test_out_of_order_stream_rejected(self):
        simulator = ClusterSimulator([spr_node()], RoundRobinRouter())
        stream = iter([ArrivingRequest(0, 1.0, 32, 8),
                       ArrivingRequest(1, 0.5, 32, 8)])
        with pytest.raises(InvalidArrivalError, match="time-ordered"):
            simulator.run(stream)

    def test_tenant_requests_checked_too(self):
        simulator = ClusterSimulator([spr_node()], RoundRobinRouter())
        with pytest.raises(InvalidArrivalError, match="input_len"):
            simulator.run([TenantRequest(request_id=0, arrival_s=0.0,
                                         input_len=0, output_len=8,
                                         user_id=3)])

    def test_nan_arrival_raises_instead_of_hanging(self):
        # Run in a child under a timeout: a NaN arrival used to hang the
        # event loop, which would stall the whole test session.
        script = textwrap.dedent("""
            from repro.cluster import (ClusterSimulator, InvalidArrivalError,
                                       ReplicaNode, RoundRobinRouter)
            from repro.hardware.registry import get_platform
            from repro.models.registry import get_model
            from repro.serving.arrivals import ArrivingRequest

            node = ReplicaNode("spr-0", get_platform("spr"),
                               get_model("llama2-7b"))
            arrivals = [ArrivingRequest(0, 0.0, 32, 8),
                        ArrivingRequest(1, float("nan"), 32, 8)]
            try:
                ClusterSimulator([node], RoundRobinRouter()).run(
                    iter(arrivals))
            except InvalidArrivalError as error:
                print("raised:", error)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "raised:" in done.stdout and "nan" in done.stdout

    def test_sharded_runs_check_in_their_workers(self):
        config = ClusterConfig([ReplicaSpec(SPR, LLAMA, count=2)])
        arrivals = [ArrivingRequest(0, 0.0, 32, 8),
                    ArrivingRequest(1, 0.2, 32, 8),
                    ArrivingRequest(2, -0.5, 32, 8)]
        with pytest.raises(InvalidArrivalError):
            run_sharded(config, ShardRouter(2), arrivals, workers=1)
        with pytest.raises(RuntimeError, match="InvalidArrivalError"):
            run_sharded(config, ShardRouter(2), arrivals, workers=2)


class TestArrivalHelpers:
    def test_bursty_arrivals_deterministic_and_sorted(self):
        a = bursty_arrivals(0.5, 4.0, 20, seed=3)
        b = bursty_arrivals(0.5, 4.0, 20, seed=3)
        assert a == b
        times = [r.arrival_s for r in a]
        assert times == sorted(times)

    def test_bursty_arrivals_bursts_are_denser(self):
        # With a 100x rate gap the burst windows must contain most
        # arrivals despite covering a fraction of the time.
        trace = bursty_arrivals(0.05, 5.0, 60, burst_s=10.0,
                                period_s=100.0, seed=0)
        in_burst = sum(1 for r in trace if (r.arrival_s % 100.0) < 10.0)
        assert in_burst > len(trace) * 0.6

    def test_bursty_validates_period(self):
        with pytest.raises(ValueError, match="period_s"):
            bursty_arrivals(1.0, 2.0, 4, burst_s=10.0, period_s=10.0)

    def test_merge_renumbers_and_sorts(self):
        merged = merge_arrivals(poisson_arrivals(1.0, 5, seed=0),
                                poisson_arrivals(1.0, 5, seed=1))
        assert [r.request_id for r in merged] == list(range(10))
        times = [r.arrival_s for r in merged]
        assert times == sorted(times)

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError, match="no arrivals"):
            merge_arrivals([])
