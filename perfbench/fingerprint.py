"""Correctness fingerprints and invariant checks for benchmark outputs.

A fingerprint condenses one simulated outcome into named integers,
floats and labels. Two fingerprints agree when every integer and label
matches exactly and every float matches to 1e-9 relative — the
simulator's fast-vs-exact contract. Per-request (or per-point) checks
count how many operations in an outcome are missing, non-finite or
break an invariant; those count against ``failed``.
"""

import math
from typing import Dict, List, Sequence, Tuple

REL_TOL = 1e-9


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sequence."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def floats_agree(want: float, got: float, rel_tol: float = REL_TOL) -> bool:
    if want == got:
        return True
    if not (math.isfinite(want) and math.isfinite(got)):
        return False
    return abs(want - got) <= rel_tol * max(abs(want), abs(got))


def compare(want: Dict[str, object], got: Dict[str, object]) -> List[str]:
    """Names of the fingerprint fields on which *got* differs from *want*."""
    diffs = []
    for key in sorted(set(want) | set(got)):
        a, b = want.get(key), got.get(key)
        if isinstance(a, float) or isinstance(b, float):
            ok = isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and floats_agree(float(a), float(b))
        elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            ok = len(a) == len(b) and all(
                floats_agree(x, y) if isinstance(x, float) else x == y
                for x, y in zip(a, b))
        else:
            ok = a == b
        if not ok:
            diffs.append(key)
    return diffs


# -- cluster reports -------------------------------------------------------


def fleet_fingerprint(report) -> Dict[str, object]:
    """Fingerprint of a :class:`~repro.cluster.metrics.ClusterReport`."""
    ttft = sorted(r.ttft_s for r in report.completed)
    finish = sorted(r.finish_s for r in report.completed)
    stats = report.node_stats
    return {
        "completed": len(report.completed),
        "events": len(report.queue_depth_timeline),
        "generated_tokens": report.generated_tokens,
        "wasted_tokens": report.wasted_tokens,
        "requeued_requests": report.requeued_requests,
        "node_iterations": [s.iterations for s in stats],
        "node_completed": [s.completed for s in stats],
        "node_generated_tokens": [s.generated_tokens for s in stats],
        "node_busy_s": [float(s.busy_s) for s in stats],
        "makespan_s": float(report.makespan_s),
        "ttft_sum_s": math.fsum(ttft),
        "ttft_p50_s": _quantile(ttft, 0.50),
        "ttft_p99_s": _quantile(ttft, 0.99),
        "finish_sum_s": math.fsum(finish),
        "finish_p50_s": _quantile(finish, 0.50),
        "finish_p99_s": _quantile(finish, 0.99),
    }


def check_fleet(report, expected: Sequence, require_requeue: bool = False
                ) -> Tuple[int, List[str]]:
    """Failed-request count and problems of one cluster outcome.

    *expected* is the arrival stream the run was fed, in id order
    (``expected[i].request_id == i``). A request fails when it has no
    record, more than one, non-finite stamps, an arrival stamp that is
    not its own, or stamps out of lifecycle order (arrival ≤ start ≤
    first token ≤ finish, and finish ≥ arrival + TTFT). A broken
    fleet-wide invariant (conservation of requests and tokens, a
    failure that requeued nothing when one must) fails every request.
    """
    problems: List[str] = []
    count = len(expected)
    ok = [False] * count
    seen = [False] * count
    extras = 0
    for record in report.completed:
        rid = record.request_id
        if not (0 <= rid < count) or seen[rid]:
            extras += 1
            continue
        seen[rid] = True
        a, s = record.arrival_s, record.start_s
        f, e = record.first_token_s, record.finish_s
        if not all(math.isfinite(x) for x in (a, s, f, e)):
            continue
        slack = REL_TOL * max(1.0, abs(e))
        ok[rid] = (a == expected[rid].arrival_s and a <= s + slack
                   and s <= f + slack and f <= e + slack
                   and e >= a + (f - a) - slack)
    failed = extras + ok.count(False)
    if extras or failed:
        problems.append(f"{failed} requests missing, duplicated or invalid")

    stats = report.node_stats
    want_tokens = sum(r.output_len for r in expected)
    invariants = {
        "completions conserved": len(report.completed) == count
        and sum(s.completed for s in stats) == count,
        "tokens conserved": report.generated_tokens == want_tokens
        and sum(s.generated_tokens for s in stats) == want_tokens,
        "makespan is the last finish": bool(report.completed) and
        report.makespan_s == max(r.finish_s for r in report.completed),
        "busy times finite": all(math.isfinite(s.busy_s) and s.busy_s >= 0
                                 for s in stats),
        "one event per arrival at least":
            len(report.queue_depth_timeline) >= count,
    }
    if require_requeue:
        invariants["failure requeued work"] = report.requeued_requests > 0
    broken = [name for name, held in invariants.items() if not held]
    if broken:
        problems.append("broken invariants: " + ", ".join(broken))
        failed = max(failed, count)
    return failed, problems


# -- fluid what-if points ---------------------------------------------------


def point_fingerprint(report) -> Tuple[float, float, float, str]:
    """(throughput tok/s, attainment, $/Mtok, regime) of one fluid point."""
    return (float(report.throughput_tokens_per_s), float(report.attainment),
            float(report.dollars_per_mtok), report.regime)


def point_valid(point: Tuple[float, float, float, str]) -> bool:
    """Finite positive throughput and $/Mtok, attainment within [0, 1].

    Attainment is a ratio of float sums, so a fully attained point may
    read one rounding step above 1.
    """
    throughput, attainment, dollars, _regime = point
    return (math.isfinite(throughput) and throughput > 0.0
            and math.isfinite(dollars) and dollars > 0.0
            and 0.0 <= attainment <= 1.0 + REL_TOL)


def points_agree(want: Sequence, got: Sequence) -> List[bool]:
    """Per-point agreement of two equally long point lists."""
    return [a[3] == b[3] and all(floats_agree(x, y)
                                 for x, y in zip(a[:3], b[:3]))
            for a, b in zip(want, got)]


def diff(want, got) -> List[str]:
    """Where two unit fingerprints (fleet dicts or point lists) differ."""
    if isinstance(want, list):
        same = len(want) == len(got) and all(points_agree(want, got))
        return [] if same else ["points"]
    return compare(want, got)
