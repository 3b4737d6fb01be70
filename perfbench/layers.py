"""Per-layer ledger: spans wrapped around calls into each layer's public API.

Nothing here edits the simulator. :func:`install` replaces public methods
and functions with timing wrappers for the lifetime of the benchmark
process; every wrapper opens a span, and a span's *self time* is its
duration minus the time covered by spans it caused (nested instrumented
calls). The benchmark opens one root span per measured unit, so the
self times of all layers plus the root's own self time (the remainder:
benchmark code and uninstrumented glue) should tile the unit's wall
time. The closure check :func:`Ledger.closure_error` compares their sum
with a wall timed by the caller outside the ledger, and the remainder's
share of that wall (``trace.remainder_frac``) shows how much of the unit
no layer covers.

Layers are named after the modules they wrap:

========================  ==============================================
``workloads.streams``     ``next()`` on the arrival iterator
``cluster.simulator``     ``ClusterSimulator.run`` (event heap, fleet
                          advance scan, the loop itself)
``cluster.router``        ``select`` of every router class
``cluster.node``          ``ReplicaNode.advance_to`` / ``submit``, and
                          the router-facing cost queries ``backlog_s`` /
                          ``prefill_cost_s`` / ``decode_cost_s``
``engine.stepcost``       public ``DecodeCostTable`` lookups
``engine.executor``       ``OperatorExecutor.time_decode_series``
``engine.backend``        ``decode_ops`` of every execution backend
``cluster.fluid``         ``fluid.solve`` / ``fluid.solve_grid``
``cluster.shard``         ``run_sharded`` (timed by the benchmark, with
                          rusage deltas for parent and workers)
``cluster.metrics``       the serving summary built from a report
``calibration``           ``check_all_targets`` (timed by the benchmark)
========================  ==============================================
"""

import time
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter

#: Router-facing cost queries, ledgered together as ``cost_query``.
COST_QUERIES = ("backlog_s", "prefill_cost_s", "decode_cost_s")

#: Public ``DecodeCostTable`` lookups.
STEPCOST_LOOKUPS = ("prefill_time", "prefill_split", "step_time",
                    "step_split", "range_cost", "prefix_times",
                    "step_times", "steps_within", "expected_prefill_time",
                    "expected_decode_time")


class Stat:
    """Calls, self seconds and extra counters of one span name."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Ledger:
    """Span stack plus per-name statistics for one process.

    ``stack`` holds, for every open span, the seconds already covered by
    its finished children; the bottom entry belongs to no span and
    absorbs the durations of root spans.
    """

    def __init__(self) -> None:
        self.stack: List[float] = [0.0]
        self.stats: Dict[str, Stat] = {}

    def stat(self, name: str) -> Stat:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = Stat()
        return entry

    def reset(self) -> None:
        for entry in self.stats.values():
            entry.calls = 0
            entry.self_s = 0.0
            entry.extra = 0
        self.stack[:] = [0.0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* with a span named *name* around every call."""
        stat = self.stat(name)
        stack = self.stack

        def spanned(*args, **kwargs):
            stack.append(0.0)
            begin = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - begin
                child = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - child
                stack[-1] += elapsed

        spanned.__wrapped__ = fn
        spanned.__name__ = getattr(fn, "__name__", name)
        spanned.__doc__ = getattr(fn, "__doc__", None)
        return spanned

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call *fn* inside a span; returns ``(result, wall seconds)``."""
        stat = self.stat(name)
        self.stack.append(0.0)
        begin = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = _perf() - begin
            child = self.stack.pop()
            stat.calls += 1
            stat.self_s += elapsed - child
            self.stack[-1] += elapsed
        return result, elapsed

    def total_self_s(self) -> float:
        return sum(entry.self_s for entry in self.stats.values())

    def closure_error(self, wall_s: float) -> float:
        """Relative gap between the summed self times and *wall_s*.

        *wall_s* is timed by the caller around one root span, outside
        the ledger, with the ledger reset just before the span opened.
        """
        return abs(self.total_self_s() - wall_s) / max(wall_s, 1e-12)


class SpannedIterator:
    """An iterator whose every ``next()`` is a ``workloads.streams`` span.

    The span's call count is the number of arrivals yielded: the pull
    that finds the stream exhausted is timed but not counted.
    """

    __slots__ = ("_next", "_stat")

    def __init__(self, ledger: Ledger, iterable) -> None:
        self._next = ledger.wrap("workloads.streams", iter(iterable).__next__)
        self._stat = ledger.stat("workloads.streams")

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return self._next()
        except StopIteration:
            self._stat.calls -= 1
            raise


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _wrap_method(ledger: Ledger, owner, attr: str, name: str,
                 undo: list) -> None:
    original = owner.__dict__[attr]
    undo.append((owner, attr, original))
    setattr(owner, attr, ledger.wrap(name, original))


def _wrap_advance_to(ledger: Ledger, owner, undo: list) -> None:
    """``advance_to`` span that also counts scheduler iterations run."""
    original = owner.__dict__["advance_to"]
    undo.append((owner, "advance_to", original))
    stat = ledger.stat("cluster.node.advance_to")
    noop = ledger.stat("cluster.node.advance_noop")
    stack = ledger.stack

    def advance_to(self, horizon=None):
        before = self.iterations
        stack.append(0.0)
        begin = _perf()
        try:
            return original(self, horizon)
        finally:
            elapsed = _perf() - begin
            child = stack.pop()
            stat.calls += 1
            stat.self_s += elapsed - child
            stack[-1] += elapsed
            ran = self.iterations - before
            stat.extra += ran
            if not ran:
                noop.calls += 1

    setattr(owner, "advance_to", advance_to)


def _wrap_series(ledger: Ledger, owner, undo: list) -> None:
    """``time_decode_series`` span that also counts priced steps."""
    original = owner.__dict__["time_decode_series"]
    undo.append((owner, "time_decode_series", original))
    wrapped = ledger.wrap("engine.executor.series", original)
    stat = ledger.stat("engine.executor.series")

    def time_decode_series(self, model, batch_size, kv_start, kv_end):
        stat.extra += max(0, kv_end - kv_start)
        return wrapped(self, model, batch_size, kv_start, kv_end)

    setattr(owner, "time_decode_series", time_decode_series)


def install(ledger: Ledger, in_process: bool = True) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns an undo function.

    With ``in_process=False`` (a workload whose simulation runs in forked
    workers) only the fluid entry points are wrapped:
    wrappers inherited by the workers would slow them down while their
    counters die with the worker processes.
    """
    from repro.cluster import fluid
    from repro.cluster.node import ReplicaNode
    from repro.cluster.router import Router
    from repro.cluster.simulator import ClusterSimulator
    from repro.engine.backend import ExecutionBackend
    from repro.engine.executor import OperatorExecutor
    from repro.engine.stepcost import DecodeCostTable

    undo: list = []
    for module, attr in ((fluid, "solve"), (fluid, "solve_grid")):
        original = getattr(module, attr)
        undo.append((module, attr, original))
        setattr(module, attr, ledger.wrap(f"cluster.fluid.{attr}",
                                          original))
    if in_process:
        _wrap_method(ledger, ClusterSimulator, "run",
                     "cluster.simulator", undo)
        for cls in _subclasses(Router):
            if "select" in cls.__dict__:
                _wrap_method(ledger, cls, "select", "cluster.router.select",
                             undo)
        _wrap_advance_to(ledger, ReplicaNode, undo)
        _wrap_method(ledger, ReplicaNode, "submit", "cluster.node.submit",
                     undo)
        for attr in COST_QUERIES:
            _wrap_method(ledger, ReplicaNode, attr,
                         "cluster.node.cost_query", undo)
        for attr in STEPCOST_LOOKUPS:
            _wrap_method(ledger, DecodeCostTable, attr,
                         "engine.stepcost.lookup", undo)
        _wrap_series(ledger, OperatorExecutor, undo)
        for cls in _subclasses(ExecutionBackend):
            if "decode_ops" in cls.__dict__:
                _wrap_method(ledger, cls, "decode_ops",
                             "engine.backend.decode_ops", undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(ledger: Ledger, events: int, wall_s: float,
                  shard: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """The per-layer metric set of one traced unit (0 where unused).

    *wall_s* is the unit's wall time, timed outside the ledger.
    """
    s = ledger.stats

    def calls(name: str) -> int:
        return s[name].calls if name in s else 0

    def self_s(name: str) -> float:
        return s[name].self_s if name in s else 0.0

    def extra(name: str) -> int:
        return s[name].extra if name in s else 0

    advance_calls = calls("cluster.node.advance_to")
    iterations = extra("cluster.node.advance_to")
    sim_self = self_s("cluster.simulator")
    shard = shard or {}
    return {
        "workloads.streams.next_s": self_s("workloads.streams"),
        "workloads.streams.arrivals": calls("workloads.streams"),
        "cluster.simulator.events": events,
        "cluster.simulator.self_s": sim_self,
        "cluster.simulator.host_us_per_event":
            sim_self / events * 1e6 if events else 0.0,
        "cluster.router.select_calls": calls("cluster.router.select"),
        "cluster.router.select_self_s": self_s("cluster.router.select"),
        "cluster.node.advance_to_calls": advance_calls,
        "cluster.node.advance_to_self_s": self_s("cluster.node.advance_to"),
        "cluster.node.advance_noop_frac":
            calls("cluster.node.advance_noop") / advance_calls
            if advance_calls else 0.0,
        "cluster.node.iterations": iterations,
        "cluster.node.iters_per_advance":
            iterations / advance_calls if advance_calls else 0.0,
        "cluster.node.submit_s": self_s("cluster.node.submit"),
        "cluster.node.cost_query_s": self_s("cluster.node.cost_query"),
        "engine.stepcost.lookup_calls": calls("engine.stepcost.lookup"),
        "engine.stepcost.lookup_s": self_s("engine.stepcost.lookup"),
        "engine.executor.series_calls": calls("engine.executor.series"),
        "engine.executor.series_steps": extra("engine.executor.series"),
        "engine.executor.series_s": self_s("engine.executor.series"),
        "engine.backend.decode_ops_calls":
            calls("engine.backend.decode_ops"),
        "engine.backend.decode_ops_s": self_s("engine.backend.decode_ops"),
        "cluster.shard.wall_s": shard.get("wall_s", 0.0),
        "cluster.shard.parent_cpu_s": shard.get("parent_cpu_s", 0.0),
        "cluster.shard.worker_cpu_s": shard.get("worker_cpu_s", 0.0),
        "cluster.shard.parallel_eff": shard.get("parallel_eff", 0.0),
        "cluster.fluid.solve_calls": calls("cluster.fluid.solve"),
        "cluster.fluid.solve_s": self_s("cluster.fluid.solve")
        + self_s("cluster.fluid.solve_grid"),
        "cluster.metrics.report_s": self_s("cluster.metrics.report"),
        "trace.remainder_frac": self_s("bench.unit") / wall_s,
    }
