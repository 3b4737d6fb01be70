"""Benchmark child process: set up, measure and verify one workload.

Started by ``run.py`` with the simulator's ``src`` on ``PYTHONPATH``.
Writes one JSON record per line to standard output, each prefixed with
``PB ``, as it goes — so the parent can account for a run it had to kill
(the records up to the hang survive). Record kinds, in order:

``setup``    one per cold set-up: ``s`` seconds
``start``    before each measured unit: ``ops`` it will attempt
``unit``     after it: ``ops``, ``failed``, ``busy_s``, ``traced``,
             ``problems`` and, for traced units, ``layers``
``verify``   the prefix cross-check: ``ops``, ``failed``, ``problems``
``latency``  per-operation host latency: ``p50_ms`` and ``p99_ms``
             over the operations, each timed at its median over the
             untraced units, with the ``samples`` and ``units`` they
             rest on
``calibration`` paper-fidelity figures
``done``     ``peak_rss_mb``, and for traced runs the traced set-up's
             layer split and its closure error

A traced unit's ``closure_err`` compares the layers' summed self times
with the unit's wall timed outside the ledger; its ``remainder_frac``
is the share of that wall no layer covers.
"""

import argparse
import gc
import json
import math
import resource
import sys
import time
from array import array

import numpy

import fingerprint
from layers import Ledger, install, layer_metrics
from workloads import WORKLOADS, calibration

_perf = time.perf_counter

#: Cold set-ups per untraced run: the first figure up front, then more
#: between the measured units while they have taken less than the
#: second figure (seconds, spread evenly over ``--seconds``), up to the
#: third in all. ``setup_s`` is their median. A cheap set-up (tens of
#: milliseconds) is thus timed about a hundred times, under the same
#: host conditions as the units; one of several seconds, once.
SETUPS = (1, 4.0, 200)
#: Measured units a run makes at least, whatever ``--seconds`` says.
MIN_UNITS = 2
#: Operations of a unit whose latency is kept, at most: an even stride
#: through the unit, so that the memory they take does not grow the
#: run's peak with the number of units.
LATENCY_OPS = 2048


def emit(kind: str, **fields) -> None:
    sys.stdout.write("PB " + json.dumps({"t": kind, **fields}) + "\n")
    sys.stdout.flush()


def _quantile(ordered, q: float) -> float:
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def _setup_layers(ledger: Ledger, wall_s: float) -> dict:
    s = ledger.stats

    def get(name, field):
        return getattr(s[name], field) if name in s else 0
    return {
        "setup.wall_s": wall_s,
        "setup.engine.executor.series_calls":
            get("engine.executor.series", "calls"),
        "setup.engine.executor.series_steps":
            get("engine.executor.series", "extra"),
        "setup.engine.executor.series_s":
            get("engine.executor.series", "self_s"),
        "setup.engine.backend.decode_ops_s":
            get("engine.backend.decode_ops", "self_s"),
        "setup.engine.stepcost.lookup_s":
            get("engine.stepcost.lookup", "self_s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    emit("config", config=workload.describe())
    ledger = Ledger() if args.trace else None
    in_process = args.workload != "fleet-sharded"
    extra = {}

    setups = []

    def timed_setup() -> float:
        gc.collect()  # every set-up starts from the same heap
        begin = _perf()
        workload.setup()
        setups.append(_perf() - begin)
        emit("setup", s=setups[-1])
        return setups[-1]

    least, budget_s, most = SETUPS
    if ledger is None:
        for _ in range(least):
            timed_setup()
    else:
        uninstall = install(ledger, in_process=in_process)
        ledger.reset()
        begin = _perf()
        ledger.span("bench.unit", workload.setup)
        wall = _perf() - begin
        uninstall()
        extra["setup_layers"] = _setup_layers(ledger, wall)
        extra["setup_closure_err"] = ledger.closure_error(wall)

    reference = None
    # Every untraced unit's latencies, one per kept operation. The units
    # of a run repeat the same operations in the same order, and a
    # shared host runs the same code up to 1.8 times as fast for
    # stretches of seconds; each operation's median over the units,
    # taken seconds apart, is its cost in the state the host was in for
    # most of the run.
    latency = []
    begin = _perf()
    index = 0
    while index < MIN_UNITS or _perf() - begin < args.seconds:
        if ledger is None:
            share = min(1.0, (_perf() - begin) / args.seconds)
            while len(setups) < most and sum(setups) < budget_s * share:
                begin += timed_setup()  # set-ups do not eat unit time
        # Traced runs alternate untraced and traced units, so the two
        # walls compare like with like (trace.overhead_frac).
        traced = ledger is not None and index % 2 == 1
        emit("start", ops=workload.ops_per_unit)
        gc.collect()  # the last unit's garbage is not this unit's cost
        uninstall = install(ledger, in_process) if traced else None
        try:
            result = workload.unit(ledger if traced else None)
        finally:
            if uninstall is not None:
                uninstall()
        record = {"ops": result.ops, "failed": result.failed,
                  "busy_s": result.busy_s, "traced": traced,
                  "problems": result.problems}
        if reference is None:
            reference = result.fingerprint
        else:
            diffs = fingerprint.diff(reference, result.fingerprint)
            if diffs:
                record["failed"] = result.ops
                record["problems"].append(
                    "outcome differs from the run's first unit on "
                    + ", ".join(diffs))
        if traced:
            record["layers"] = layer_metrics(ledger, result.events,
                                             result.body_wall_s, result.shard)
            record["closure_err"] = ledger.closure_error(result.body_wall_s)
        else:
            stride = max(1, math.ceil(len(result.latency_s) / LATENCY_OPS))
            samples = result.latency_s[::stride]
            if latency and len(samples) != len(latency[0]):
                record["failed"] = result.ops
                record["problems"].append(
                    f"{len(samples)} latency samples, the run's first unit "
                    f"had {len(latency[0])}")
            else:
                latency.append(array("f", samples))
        emit("unit", **record)
        index += 1

    verified = workload.verify()
    emit("verify", ops=verified.ops, failed=verified.failed,
         problems=verified.problems)
    if latency:
        ordered = numpy.sort(numpy.median(numpy.array(latency), axis=0))
        emit("latency", p50_ms=_quantile(ordered, 0.50) * 1e3,
             p99_ms=_quantile(ordered, 0.99) * 1e3, samples=len(ordered),
             units=len(latency))
    emit("calibration", **calibration())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not in_process:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    emit("done", peak_rss_mb=rss_kb / 1024.0, **extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
