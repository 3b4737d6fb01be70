"""Self-test of the benchmark: its references, checks and output contract.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench

Takes about two minutes; it is not part of the repository's tier-1 suite.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import fingerprint  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Ledger, install, layer_metrics  # noqa: E402

SEED = 5

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def run_bench(*args, cwd=ROOT, timeout=170):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                         "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    return proc, proc.stdout.strip().splitlines()


# -- the fast-path references are themselves trusted ------------------------


def test_fleet_mixed_reference_matches_exact_prefix():
    workload = workloads.FleetMixed(SEED)
    workload.setup()
    count = 700
    fast = workload.check(workload.simulate(
        workload.stream(count).full())(), count)
    reference = workload.check(workload.simulate(
        workload.stream(count).full(), exact=True)(), count)
    assert fast.failed == 0 and reference.failed == 0, fast.problems
    assert fingerprint.compare(reference.fingerprint,
                               fast.fingerprint) == []


def test_sharded_reference_matches_single_process_and_exact():
    workload = workloads.FleetSharded(SEED)
    workload.setup()
    stream = workload.stream(2_000)
    sharded = workload.check(workload.sharded(stream, 2)(), 2_000)
    single = workload.check(workload.sharded(stream, 1)(), 2_000)
    assert sharded.failed == 0 and single.failed == 0, sharded.problems
    assert fingerprint.compare(single.fingerprint, sharded.fingerprint) == []
    from repro.cluster import shard
    exact = workload.check(shard.run_sharded(
        workload.config(), workload.router(), stream, workers=1,
        exact="vectorized"), 2_000)
    assert fingerprint.compare(exact.fingerprint, single.fingerprint) == []


def test_fleet_mixed_failure_requeues_on_every_test_seed():
    for seed in range(6):
        workload = workloads.FleetMixed(seed)
        result = workload.check(workload.simulate(
            workload.stream(workload.prefix).full())(), workload.prefix)
        assert result.fingerprint["requeued_requests"] > 0, seed
        assert result.failed == 0, result.problems


def test_whatif_unit_agrees_with_per_point_solve():
    workload = workloads.WhatIfGrid(SEED)
    workload.setup()
    result = workload.unit(None)
    assert result.ops == 825 and result.failed == 0, result.problems
    assert len(result.latency_s) == 825 * workload.warm_passes


# -- checks catch what they claim to ----------------------------------------


def test_compare_is_exact_on_integers_and_1e9_on_floats():
    want = {"n": 3, "x": 1.0, "xs": [1.0, 2.0], "ids": [1, 2]}
    assert fingerprint.compare(want, dict(want, x=1.0 + 5e-10)) == []
    assert fingerprint.compare(want, dict(want, x=1.0 + 5e-9)) == ["x"]
    assert fingerprint.compare(want, dict(want, n=4)) == ["n"]
    assert fingerprint.compare(want, dict(want, ids=[1, 3])) == ["ids"]
    assert fingerprint.compare(want, dict(want, x=float("nan"))) == ["x"]


def test_check_fleet_counts_a_lost_request():
    workload = workloads.FleetSharded(SEED)
    count = 200
    report = workload.simulate(workload.stream(count).full())()
    expected = list(workload.stream(count).full())
    assert fingerprint.check_fleet(report, expected) == (0, [])
    report.completed.pop()
    failed, problems = fingerprint.check_fleet(report, expected)
    assert failed == count  # a lost request breaks conservation
    assert any("conserved" in p for p in problems)


# -- traced runs -------------------------------------------------------------


def test_traced_unit_closes_and_leaves_outcome_unchanged():
    workload = workloads.FleetMixed(SEED)
    workload.ops_per_unit = 600
    workload.setup()
    plain = workload.unit(None)
    ledger = Ledger()
    uninstall = install(ledger)
    try:
        traced = workload.unit(ledger)
    finally:
        uninstall()
    assert fingerprint.diff(plain.fingerprint, traced.fingerprint) == []
    assert ledger.closure_error(traced.body_wall_s) < run.CLOSURE_TOL
    assert all(stat.self_s >= -1e-9 for stat in ledger.stats.values())
    layers = layer_metrics(ledger, traced.events, traced.body_wall_s)
    assert 0 < layers["trace.remainder_frac"] < run.REMAINDER_TOL
    assert layers["cluster.router.select_calls"] >= 600
    assert layers["cluster.node.cost_query_s"] > 0
    assert layers["workloads.streams.arrivals"] == 600
    # Uninstalling restores the original entry points.
    from repro.cluster.node import ReplicaNode
    assert not hasattr(ReplicaNode.advance_to, "__wrapped__")


# -- the command-line contract ----------------------------------------------


def _result(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_declared_metric(trace, key):
    proc, lines = run_bench("--workload", "fleet-sharded", "--seed", "3",
                            "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(lines)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    manifest = next(json.loads(line)["manifest"] for line in lines
                    if line.startswith('{"manifest"'))
    assert manifest["seed"] == 3 and manifest["nproc"] >= 1


def test_timeout_counts_the_cut_unit_as_failed():
    args = argparse.Namespace(workload="fleet-sharded", seed=3, seconds=60,
                              trace=0)
    records, _other, aborted = run.run_child(args, timeout_s=4)
    assert aborted
    correct, attempted, failed, _metrics, _notes = run.summarize(
        records, trace=False, aborted=aborted)
    assert not correct
    assert failed >= workloads.FleetSharded.ops_per_unit
    assert attempted >= failed


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, lines = run_bench("--workload", "fleet-sharded", "--seed", "1",
                            "--seconds", "1", "--trace", "0",
                            cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_closure_check_fails_a_run_with_uncovered_wall():
    layers = {"trace.remainder_frac": 2 * run.REMAINDER_TOL}
    records = [
        {"t": "start", "ops": 10},
        {"t": "unit", "ops": 10, "failed": 0, "busy_s": 1.0, "traced": False,
         "problems": []},
        {"t": "start", "ops": 10},
        {"t": "unit", "ops": 10, "failed": 0, "busy_s": 1.1, "traced": True,
         "problems": [], "layers": layers, "closure_err": 0.0},
        {"t": "done", "peak_rss_mb": 1.0, "setup_layers": {},
         "setup_closure_err": 0.0},
    ]
    correct, _attempted, failed, _metrics, notes = run.summarize(
        records, trace=True, aborted=False)
    assert not correct and failed >= 1
    assert any("outside every layer" in note for note in notes)
