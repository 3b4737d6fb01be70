"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-mixed --seed 1 --seconds 30 --trace 0

Workloads: ``fleet-mixed``, ``fleet-sharded`` and ``whatif-grid`` (see
``BENCHMARK.json`` for why each exists). With ``--trace 0`` the last
line carries the end-to-end metrics, measured untraced; with
``--trace 1`` it carries the per-layer ledger of a traced run instead.
The lines before it give the same figures readably, with sample counts,
and the run manifest.

The measurement runs in a child process (``worker.py``) under a
wall-clock timeout. A run that hangs is killed with every process it
started; the operations it had not finished count as failed and the
result says ``"correct": false``. Exit status: 0 for a correct run, 1
for a run whose outputs failed a check, 2 when nothing could be run
(bad arguments, no simulator source in the working directory).
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "repro")
WORKLOADS = ("fleet-mixed", "fleet-sharded", "whatif-grid")
#: Run timeout in seconds beyond ``--seconds``; keeps every run, killed
#: or not, inside three minutes at up to 30 measured seconds.
TIMEOUT_MARGIN_S = 130.0
#: Largest tolerated gap between a traced span's summed layer self times
#: and its wall timed outside the ledger, relative. The gap the root
#: span's own bookkeeping leaves is a few microseconds.
CLOSURE_TOL = 1e-3
#: Largest share of a traced unit's wall that no layer may cover.
REMAINDER_TOL = 0.05

UNITS = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p99": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "paper_rel_err_mean": "frac",
    "paper_targets_in_band": "count",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_eff") \
            or name.endswith("_err"):
        return "frac"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith("iters_per_advance"):
        return "1/call"
    return "count"


def tree_hash() -> str:
    """SHA-256 over the simulator's source files (path and content)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SOURCE):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_revision():
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_child(args, timeout_s: float):
    """Run the worker; returns (protocol records, other output, timed out)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        _kill_group(proc.pid)
        out, _ = proc.communicate()
    finally:
        _kill_group(proc.pid)
    records, other = [], []
    for line in out.splitlines():
        if line.startswith("PB "):
            records.append(json.loads(line[3:]))
        else:
            other.append(line)
    return records, other, timed_out or proc.returncode != 0


def _kill_group(pgid: int) -> None:
    """Kill what is left of the worker's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def summarize(records, trace: bool, aborted: bool):
    """(correct, attempted, failed, metrics, notes) from worker records."""
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["t"], []).append(record)
    units = by_kind.get("unit", [])
    verify = by_kind.get("verify", [{"ops": 0, "failed": 0, "problems": []}])
    done = by_kind.get("done", [None])[0]
    notes = [p for record in units + verify for p in record["problems"]]

    started = sum(r["ops"] for r in by_kind.get("start", []))
    finished = sum(r["ops"] for r in units)
    attempted = started + verify[0]["ops"]
    failed = sum(r["failed"] for r in units) + verify[0]["failed"]
    failed += started - finished  # units a timeout or crash cut short
    if aborted:
        notes.append("run did not finish: timed out or crashed")
        if attempted == 0:
            attempted = failed = 1  # the set-up itself never finished

    metrics = {}
    calibration = by_kind.get("calibration", [None])[0]
    if not trace:
        rates = [r["ops"] / r["busy_s"] for r in units]
        if rates:
            metrics["ops_per_s"] = statistics.median(rates)
        latency = by_kind.get("latency", [None])[0]
        if latency:
            metrics["op_ms_p50"] = latency["p50_ms"]
            metrics["op_ms_p99"] = latency["p99_ms"]
            notes.append(f"op latency over {latency['samples']} samples, "
                         f"each the median of {latency['units']} units")
        setups = [r["s"] for r in by_kind.get("setup", [])]
        if setups:
            metrics["setup_s"] = statistics.median(setups)
        if done:
            metrics["peak_rss_mb"] = done["peak_rss_mb"]
        if calibration:
            metrics["paper_rel_err_mean"] = calibration["rel_err_mean"]
            metrics["paper_targets_in_band"] = calibration["in_band"]
        notes.append(f"{len(units)} units, {len(setups)} set-ups")
    else:
        traced = [r for r in units if r["traced"]]
        plain = [r for r in units if not r["traced"]]
        for name in (traced[0]["layers"] if traced else {}):
            metrics[name] = statistics.median(r["layers"][name]
                                              for r in traced)
        if traced and plain:
            metrics["trace.overhead_frac"] = statistics.median(
                r["busy_s"] for r in traced) / statistics.median(
                r["busy_s"] for r in plain) - 1.0
        if done:
            metrics.update(done["setup_layers"])
            closure = [r["closure_err"] for r in traced]
            closure.append(done["setup_closure_err"])
            metrics["trace.closure_err"] = max(closure)
            if max(closure) > CLOSURE_TOL:
                notes.append(f"closure check failed: layer self times miss "
                             f"the traced wall by {max(closure):.2e}")
                failed = max(failed, 1)
        uncovered = max((r["layers"]["trace.remainder_frac"]
                         for r in traced), default=0.0)
        if uncovered > REMAINDER_TOL:
            notes.append(f"closure check failed: {uncovered:.1%} of a traced "
                         "unit's wall lies outside every layer")
            failed = max(failed, 1)
        if calibration:
            metrics["calibration.check_s"] = calibration["check_s"]
        notes.append(f"{len(traced)} traced and {len(plain)} untraced units")
    if calibration and not calibration["finite"]:
        notes.append("calibration produced a non-finite error")
        failed = max(failed, 1)
    correct = not aborted and failed == 0 and done is not None
    return correct, attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"perfbench: no simulator source at {SOURCE}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    records, other, aborted = run_child(args,
                                        args.seconds + TIMEOUT_MARGIN_S)
    correct, attempted, failed, metrics, notes = summarize(
        records, bool(args.trace), aborted)

    for line in other:
        print(line)
    config = next((r["config"] for r in records if r["t"] == "config"), None)
    manifest = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": git_revision(), "source_sha256": tree_hash(),
        "config_sha256": hashlib.sha256(json.dumps(
            config, sort_keys=True).encode()).hexdigest() if config else None,
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "machine": platform.machine(),
    }
    print(json.dumps({"manifest": manifest}, sort_keys=True))
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        unit = UNITS.get(name) or layer_unit(name)
        print(f"{args.workload:14s} {name:44s} {value:>16.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": UNITS.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
