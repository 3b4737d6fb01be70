"""The benchmark's workloads: fleet simulations and a fluid what-if grid.

Every workload derives all of its inputs from the seed it is given and
exposes three phases:

* :meth:`Workload.setup` — cold set-up: clear every memo table, build
  the fleet(s) and warm their cost tables out to the workload's largest
  KV length (and its prompt lengths). Untimed by the unit measurements;
  timed on its own as ``setup_s``.
* :meth:`Workload.unit` — one measured unit of work on warm tables
  (the what-if grid clears its tables first: its users pay the cold
  solve in every fresh ``repro plan`` process). Returns the host wall
  time, the outcome's fingerprint and per-operation latency samples.
* :meth:`Workload.verify` — cross-checks the fast path against a
  reference on a prefix of the same inputs.

Arrivals are open-loop in simulated time (Poisson or bursty at a fixed
rate, independent of how fast the fleet serves them).
"""

import dataclasses
import math
import multiprocessing
import os
import random
import resource
import time
from array import array
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import fingerprint
from layers import Ledger, SpannedIterator

_perf = time.perf_counter
#: Clock of the per-operation latencies and of the throughput of work
#: done in this process: CPU time of the calling thread. On a shared
#: virtual machine the wall time of a stretch of work includes the
#: slices the hypervisor gave to other guests (steal, a few percent that
#: comes and goes, and now and then milliseconds on one operation); the
#: CPU time leaves them out. The simulator is single-threaded and does
#: no I/O, so on an otherwise idle host the two agree.
_op_clock = time.thread_time


def worker_count() -> int:
    """Usable CPUs of this process (``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclasses.dataclass
class UnitResult:
    """What one measured unit produced."""

    ops: int
    #: Host seconds the unit's operations took (the ``ops_per_s`` base):
    #: CPU time of this thread, or wall time when workers do the work.
    busy_s: float
    fingerprint: object
    #: Host seconds of the whole timed body, timed outside any ledger.
    body_wall_s: float = 0.0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    latency_s: Sequence[float] = ()
    events: int = 0
    shard: Optional[Dict[str, float]] = None


class ArrivalClock:
    """Arrival iterator that stamps the thread's CPU time between pulls.

    The interval that ends when request *i* is pulled is the host CPU
    time the event loop spent on the request before it (advancing the fleet
    to the new arrival, routing and queueing): it is stored at
    ``out[i]``. The first pull of a stream has no predecessor and stores
    -1. *out* may be shared memory written by forked shard workers.
    """

    __slots__ = ("_next", "_out", "_last")

    def __init__(self, iterable, out) -> None:
        self._next = iter(iterable).__next__
        self._out = out
        self._last = None

    def __iter__(self):
        return self

    def __next__(self):
        request = self._next()
        now = _op_clock()
        last = self._last
        self._out[request.request_id] = -1.0 if last is None else now - last
        self._last = now
        return request


class ClockedShardableStream:
    """A splittable stream spec whose shards are :class:`ArrivalClock`\\ s.

    Duck-types :class:`repro.workloads.streams.ShardableStream` (``spec``,
    ``full``, ``shard``) for :func:`repro.cluster.shard.run_sharded`, so
    forked workers stamp their own pulls into the shared array.
    """

    def __init__(self, stream, out) -> None:
        self.stream = stream
        self.spec = stream.spec
        self.out = out

    def full(self):
        return ArrivalClock(self.stream.full(), self.out)

    def shard(self, shard: int, num_shards: int):
        return ArrivalClock(self.stream.shard(shard, num_shards), self.out)


def _samples(out) -> List[float]:
    return [x for x in out if x >= 0.0]


def serving_summary(report) -> Dict[str, float]:
    """The user-facing summary ``repro cluster`` prints for a report."""
    serving = report.to_serving_report()
    return {
        "throughput_tok_s": report.throughput,
        "serving_throughput_tok_s": serving.throughput,
        "mean_ttft_s": report.mean_ttft_s,
        "fleet_usd": report.fleet_price_usd,
        "dollars_per_mtok": report.dollars_per_million_tokens(),
        "mean_utilization": sum(s.utilization for s in report.node_stats)
        / len(report.node_stats),
    }


class Workload:
    """Common interface; see the module docstring."""

    name = ""
    ops_per_unit = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def describe(self) -> Dict[str, object]:
        """Every input-shaping parameter, for the manifest's config hash."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, ledger: Optional[Ledger]) -> UnitResult:
        raise NotImplementedError

    def verify(self) -> UnitResult:
        raise NotImplementedError


def _llama():
    from repro.models.registry import get_model
    return get_model("llama2-7b")


def _platform(name: str):
    from repro.hardware.registry import get_platform
    return get_platform(name)


def _hybrid_price() -> float:
    from repro.analysis.cost import list_price
    return list_price(_platform("spr").name) + list_price(_platform("a100").name)


def _warm(config, input_range, kv_horizon: int) -> None:
    """Warm *config*'s decode curves and every prefill in *input_range*."""
    from repro.cluster.shard import warm_caches

    warm_caches(config, kv_horizon=kv_horizon)
    lo, hi = input_range
    seen = set()
    for node in config.build_fleet():
        if node.tier in seen:
            continue
        seen.add(node.tier)
        for length in range(lo, hi + 1):
            node.prefill_cost_s(length)


class FleetWorkload(Workload):
    """A cluster simulation over a seeded open-loop arrival stream."""

    input_range = (16, 64)
    output_range = (96, 192)
    rate_per_s = 2.0
    burst_rate_per_s: Optional[float] = None
    burst_s = 10.0
    period_s = 60.0
    require_requeue = False
    #: Requests in the prefix the verify phase cross-checks.
    prefix = 300
    #: ``exact`` mode of the reference the prefix is checked against.
    reference_exact: object = True

    def spec(self):
        return SimpleNamespace(input_len_range=self.input_range,
                               output_len_range=self.output_range)

    def config(self):
        raise NotImplementedError

    def router(self):
        raise NotImplementedError

    def events(self) -> list:
        return []

    def stream(self, count: int):
        from repro.workloads.streams import ShardableStream
        return ShardableStream(rate_per_s=self.rate_per_s, count=count,
                               spec=self.spec(),
                               burst_rate_per_s=self.burst_rate_per_s,
                               burst_s=self.burst_s, period_s=self.period_s,
                               seed=self.seed)

    def describe(self) -> Dict[str, object]:
        return {
            "fleet": [(s.platform.name, s.model.name, s.count, s.max_batch,
                       s.backend.label if s.backend is not None else "bf16")
                      for s in self.config().replicas],
            "router": self.router().name,
            "events": [repr(e) for e in self.events()],
            "input_range": self.input_range,
            "output_range": self.output_range,
            "rate_per_s": self.rate_per_s,
            "burst": [self.burst_rate_per_s, self.burst_s, self.period_s],
            "requests_per_unit": self.ops_per_unit,
            "prefix": self.prefix,
            "reference_exact": self.reference_exact,
        }

    def kv_horizon(self) -> int:
        return self.input_range[1] + self.output_range[1]

    def setup(self) -> None:
        from repro.experiments._sweeps import clear_caches

        clear_caches()
        _warm(self.config(), self.input_range, self.kv_horizon())

    def simulate(self, arrivals, exact: object = False):
        from repro.cluster import ClusterSimulator

        simulator = ClusterSimulator(self.config().build_fleet(),
                                     self.router(), events=self.events(),
                                     exact=exact)
        return lambda: simulator.run(arrivals)

    def check(self, report, count: int) -> UnitResult:
        expected = list(self.stream(count).full())
        failed, problems = fingerprint.check_fleet(
            report, expected, require_requeue=self.require_requeue)
        return UnitResult(ops=count, busy_s=0.0,
                          fingerprint=fingerprint.fleet_fingerprint(report),
                          failed=failed, problems=problems,
                          events=len(report.queue_depth_timeline))

    def unit(self, ledger: Optional[Ledger]) -> UnitResult:
        count = self.ops_per_unit
        out = array("d", [-1.0]) * count
        arrivals = ArrivalClock(self.stream(count).full(), out)
        if ledger is not None:
            arrivals = SpannedIterator(ledger, arrivals)
        run = self.simulate(arrivals)

        def body():
            report = run()
            if ledger is None:
                serving_summary(report)
            else:
                ledger.span("cluster.metrics.report", serving_summary,
                            report)
            return report

        report, wall, cpu = timed(ledger, body)
        result = self.check(report, count)
        result.busy_s, result.body_wall_s = cpu, wall
        result.latency_s = _samples(out)
        return result

    def run_prefix(self, stream, reference: bool):
        """The verify phase's report of *stream*, fast or by the reference."""
        exact = self.reference_exact if reference else False
        return self.simulate(stream.full(), exact=exact)()

    def verify(self) -> UnitResult:
        stream = self.stream(self.prefix)
        fast = self.check(self.run_prefix(stream, False), self.prefix)
        reference = self.check(self.run_prefix(stream, True), self.prefix)
        diffs = fingerprint.compare(reference.fingerprint, fast.fingerprint)
        fast.problems += reference.problems
        if diffs:
            fast.problems.append(
                f"fast path disagrees with its reference "
                f"({self.describe()['reference_exact']}) on {', '.join(diffs)}")
            fast.failed = self.prefix
        fast.failed = max(fast.failed, reference.failed)
        return fast


def timed(ledger: Optional[Ledger], body):
    """Run *body*; under a ledger, as the root span of a fresh unit.

    Returns the result, the wall seconds, timed outside the ledger so
    that the closure check has an independent wall to compare with, and
    the thread's CPU seconds.
    """
    if ledger is not None:
        ledger.reset()
    begin, begin_cpu = _perf(), _op_clock()
    result = body() if ledger is None \
        else ledger.span("bench.unit", body)[0]
    return result, _perf() - begin, _op_clock() - begin_cpu


class FleetMixed(FleetWorkload):
    """14 mixed CPU/GPU/hybrid replicas behind the cost-aware router."""

    name = "fleet-mixed"
    ops_per_unit = 4_000
    input_range = (512, 2048)
    output_range = (8, 64)
    rate_per_s = 12.0
    burst_rate_per_s = 40.0
    burst_s = 10.0
    period_s = 40.0
    require_requeue = True
    prefix = 400
    #: The replica that fails, and when (simulated seconds): inside the
    #: first burst, so it always holds in-flight work to requeue.
    failure = (6.0, "spr-int8-tp2-6")

    def config(self):
        from repro.cluster import ClusterConfig, ReplicaSpec
        from repro.engine.backend import parse_backend

        spr, a100, model = _platform("spr"), _platform("a100"), _llama()
        return ClusterConfig([
            ReplicaSpec(spr, model, count=6, max_batch=8),
            ReplicaSpec(spr, model, count=4, max_batch=8,
                        backend=parse_backend("int8-tp2")),
            ReplicaSpec(a100, model, count=2, max_batch=8),
            ReplicaSpec(spr, model, count=2, max_batch=8,
                        backend=parse_backend("hybrid:a100"),
                        price_usd=_hybrid_price()),
        ])

    def router(self):
        from repro.cluster import PhaseAwareRouter
        from repro.serving.slo import SLO
        return PhaseAwareRouter(slo=SLO())

    def events(self) -> list:
        from repro.cluster import NodeFailure
        return [NodeFailure(*self.failure)]


class FleetSharded(FleetWorkload):
    """16x SPR behind ShardRouter(16), simulated by nproc forked workers."""

    name = "fleet-sharded"
    ops_per_unit = 15_000
    output_range = (256, 512)
    rate_per_s = 3.75
    groups = 16
    prefix = 3_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.workers = worker_count()

    def config(self):
        from repro.cluster import ClusterConfig, ReplicaSpec
        return ClusterConfig([ReplicaSpec(_platform("spr"), _llama(),
                                          count=16, max_batch=8)])

    def router(self):
        from repro.cluster import ShardRouter
        return ShardRouter(self.groups)

    def describe(self) -> Dict[str, object]:
        described = super().describe()
        described["workers"] = self.workers
        described["reference_exact"] = "workers=1"
        return described

    def sharded(self, arrivals, workers: int):
        from repro.cluster import shard
        return lambda: shard.run_sharded(self.config(), self.router(),
                                         arrivals, workers=workers)

    def unit(self, ledger: Optional[Ledger]) -> UnitResult:
        count = self.ops_per_unit
        out = multiprocessing.RawArray("d", count)
        out[:] = array("d", [-1.0]) * count
        run = self.sharded(ClockedShardableStream(self.stream(count), out),
                           self.workers)
        usage = {}

        def run_with_usage():
            self_before = resource.getrusage(resource.RUSAGE_SELF)
            child_before = resource.getrusage(resource.RUSAGE_CHILDREN)
            begin = _perf()
            report = run()
            usage["wall_s"] = _perf() - begin
            self_after = resource.getrusage(resource.RUSAGE_SELF)
            child_after = resource.getrusage(resource.RUSAGE_CHILDREN)
            usage["parent_cpu_s"] = _cpu(self_after) - _cpu(self_before)
            usage["worker_cpu_s"] = _cpu(child_after) - _cpu(child_before)
            usage["parallel_eff"] = usage["worker_cpu_s"] / (
                usage["wall_s"] * self.workers)
            return report

        def body():
            if ledger is None:
                report = run_with_usage()
                serving_summary(report)
            else:
                report, _ = ledger.span("cluster.shard", run_with_usage)
                ledger.span("cluster.metrics.report", serving_summary,
                            report)
            return report

        report, wall, _ = timed(ledger, body)
        result = self.check(report, count)
        result.busy_s = result.body_wall_s = wall
        result.latency_s = _samples(out)
        result.events = 0  # dispatched in the workers, not this process
        result.shard = usage
        return result

    def run_prefix(self, stream, reference: bool):
        return self.sharded(stream, 1 if reference else self.workers)()


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


class WhatIfGrid(Workload):
    """Fluid what-if sweep over CPU/GPU/hybrid fleet mixes and rates."""

    name = "whatif-grid"
    slots = 8
    rates = 5
    rate_range = (8.0, 80.0)
    kinds = ("spr", "int8-tp2", "a100", "hybrid")
    #: Warm passes over the grid per unit: 1650 latency samples, so that
    #: more than ten lie beyond the p99.
    warm_passes = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # One rate drawn log-uniformly from each of `rates` equal strata
        # of the log range: every seed sweeps stable through overloaded
        # fleets, so the work per grid barely depends on the seed.
        rng = random.Random(seed)
        lo, hi = (math.log(x) for x in self.rate_range)
        width = (hi - lo) / self.rates
        self.rate_list = [math.exp(lo + (i + rng.random()) * width)
                          for i in range(self.rates)]
        self.scenarios = []
        self.ops_per_unit = 0

    def node_kinds(self):
        from repro.cluster import ReplicaSpec
        from repro.engine.backend import parse_backend

        spr, a100, model = _platform("spr"), _platform("a100"), _llama()
        return [
            ("spr", ReplicaSpec(spr, model, count=1, max_batch=8)),
            ("int8-tp2", ReplicaSpec(spr, model, count=1, max_batch=8,
                                     backend=parse_backend("int8-tp2"))),
            ("a100", ReplicaSpec(a100, model, count=1, max_batch=8)),
            ("hybrid", ReplicaSpec(spr, model, count=1, max_batch=8,
                                   backend=parse_backend("hybrid:a100"),
                                   price_usd=_hybrid_price())),
        ]

    def describe(self) -> Dict[str, object]:
        return {"kinds": list(self.kinds), "slots": self.slots,
                "model": "llama2-7b", "max_batch": 8,
                "rates": self.rate_list, "spec": "default", "slo": "default",
                "router": "uniform"}

    def build(self) -> None:
        from repro.cluster import fluid
        from repro.optim.advisor import fleet_mix_candidates

        candidates = fleet_mix_candidates(self.node_kinds(), self.slots)
        self.scenarios = [fluid.FluidScenario(config=config, rate_per_s=rate,
                                              label=label)
                          for label, config in candidates
                          for rate in self.rate_list]
        self.ops_per_unit = len(self.scenarios)

    def setup(self) -> None:
        from repro.cluster import ClusterConfig
        from repro.experiments._sweeps import clear_caches
        from repro.serving.arrivals import _spec_ranges

        clear_caches()
        self.build()
        (lo, hi), (_, out_hi) = _spec_ranges(None)
        for _label, spec in self.node_kinds():
            _warm(ClusterConfig([spec]), (lo, hi), hi + out_hi)

    def _solve_kwargs(self):
        from repro.serving.slo import SLO
        return {"slo": SLO(), "router": "uniform"}

    def unit(self, ledger: Optional[Ledger]) -> UnitResult:
        from repro.cluster import fluid
        from repro.experiments._sweeps import clear_caches

        kwargs = self._solve_kwargs()
        warm_s: List[float] = []
        cold: Dict[str, float] = {}

        def body():
            clear_caches()
            begin = _op_clock()
            grid = fluid.solve_grid(self.scenarios, **kwargs)
            cold["busy_s"] = _op_clock() - begin
            warm = []
            for _ in range(self.warm_passes):
                warm.clear()
                for scenario in self.scenarios:
                    begin = _op_clock()
                    warm.append(fluid.solve(scenario.config,
                                            scenario.rate_per_s, **kwargs))
                    warm_s.append(_op_clock() - begin)
            return grid, warm

        (grid, warm), wall, _ = timed(ledger, body)
        points = [fingerprint.point_fingerprint(r) for r in grid]
        warm_points = [fingerprint.point_fingerprint(r) for r in warm]
        bad = sum(1 for point, agrees in zip(
            points, fingerprint.points_agree(points, warm_points))
            if not (agrees and fingerprint.point_valid(point)))
        problems = [f"{bad} what-if points non-finite, out of range or "
                    "disagreeing between solve_grid and solve"] if bad else []
        return UnitResult(ops=len(points), busy_s=cold["busy_s"],
                          fingerprint=points, body_wall_s=wall, failed=bad,
                          problems=problems, latency_s=warm_s)

    def verify(self) -> UnitResult:
        # solve_grid is cross-checked against per-point solve in every unit.
        return UnitResult(ops=0, busy_s=0.0, fingerprint=None)


WORKLOADS = {cls.name: cls for cls in (FleetMixed, FleetSharded, WhatIfGrid)}


def calibration() -> Dict[str, float]:
    """Paper-fidelity figures over the calibration anchors."""
    from repro.calibration import check_all_targets

    begin = _perf()
    results = check_all_targets()
    elapsed = _perf() - begin
    errors = [abs(r.measured - r.target.paper_value)
              / abs(r.target.paper_value) for r in results]
    return {"targets": len(results),
            "in_band": sum(1 for r in results if r.in_band),
            "rel_err_mean": math.fsum(errors) / len(errors),
            "finite": all(math.isfinite(e) for e in errors),
            "check_s": elapsed}
