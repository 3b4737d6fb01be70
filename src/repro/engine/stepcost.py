"""Shared step-cost memoization for the serving and cluster layers.

The discrete-event serving simulators price the same two primitives over
and over: a single-sequence prefill at some prompt length, and one fused
decode iteration at some (batch size, mean kv length). Both are pure
functions of ``(platform pricing signature, model, shape)``, so a fleet
of replicas re-derives identical numbers millions of times.

:class:`DecodeCostTable` memoizes them once per
``(pricing_signature, model)`` and — the part that enables event-horizon
fast-forward (:meth:`repro.cluster.node.ReplicaNode.advance_to`) — keeps
per-batch-size *prefix-sum curves* of decode step cost, built lazily in
chunks from :meth:`~repro.engine.executor.OperatorExecutor.time_decode_series`:

``prefix_t[i]`` = total time of decode steps at ``kv_len`` 1..i, so

* one iteration at ``kv`` costs ``prefix_t[kv] - prefix_t[kv - 1]``,
* a whole run of ``k`` iterations starting at mean kv ``m`` costs
  ``prefix_t[m + k - 1] - prefix_t[m - 1]`` (one subtraction), and
* "how many iterations start before a deadline" is one binary search
  over the curve (:meth:`DecodeCostTable.steps_within`).

Tables are shared across every replica with an equal pricing signature
via the module registry (:func:`decode_cost_table`);
:func:`repro.experiments.clear_caches` empties the registry whenever
calibration constants change, which is the memo-invalidation rule — keys
capture platform, dtype, bandwidth, and compute scale, but *not* the
process-wide calibration tables those were derived from.
"""

import bisect
from typing import Dict, List, Tuple

import numpy as _np

from repro.engine.executor import OperatorExecutor
from repro.models.config import ModelConfig

#: Minimum extension chunk: large enough to amortize the closed-form
#: series analysis, small enough not to over-price short workloads.
_MIN_CHUNK = 256


class _BatchCurve:
    """Prefix-sum decode cost curves for one batch size.

    ``prefix_t[i]`` sums step times for ``kv_len`` in ``[1, i]`` (index 0
    is the empty sum), with matching compute/memory-leg curves for trace
    attribution. Curves grow by doubling so a trace that decodes to kv
    4000 pays O(log) extension calls, each a closed-form series build.
    """

    __slots__ = ("_executor", "_model", "_batch",
                 "prefix_t", "prefix_c", "prefix_m")

    def __init__(self, executor: OperatorExecutor, model: ModelConfig,
                 batch: int):
        self._executor = executor
        self._model = model
        self._batch = batch
        self.prefix_t: List[float] = [0.0]
        self.prefix_c: List[float] = [0.0]
        self.prefix_m: List[float] = [0.0]

    def ensure(self, kv_end: int) -> None:
        """Extend the curves so every ``kv_len < kv_end`` is priced."""
        have = len(self.prefix_t)  # kv values 1..have-1 are priced
        if kv_end <= have:
            return
        target = max(kv_end, 2 * (have - 1), _MIN_CHUNK + 1)
        ts, cs, ms = self._executor.time_decode_series(
            self._model, self._batch, have, target)
        pt, pc, pm = self.prefix_t, self.prefix_c, self.prefix_m
        t, c, m = pt[-1], pc[-1], pm[-1]
        for dt, dc, dm in zip(ts, cs, ms):
            t += dt
            c += dc
            m += dm
            pt.append(t)
            pc.append(c)
            pm.append(m)


class DecodeCostTable:
    """Memoized serving-cost primitives for one (executor, model) pairing.

    Prices bit-identically to the executor it wraps (prefill values are
    cached verbatim; decode values come from the probe-verified
    closed-form series, which tests pin to the per-step loop at ≤1e-9
    relative). Obtain instances through :func:`decode_cost_table` so
    replicas with equal pricing signatures share one table.
    """

    def __init__(self, executor: OperatorExecutor, model: ModelConfig):
        self.executor = executor
        self.model = model
        self._curves: Dict[int, _BatchCurve] = {}
        self._prefill: Dict[Tuple[int, int], float] = {}
        self._prefill_split: Dict[Tuple[int, int],
                                  Tuple[float, float]] = {}
        self._expected: Dict[tuple, float] = {}

    def _curve(self, batch: int) -> _BatchCurve:
        curve = self._curves.get(batch)
        if curve is None:
            curve = _BatchCurve(self.executor, self.model, batch)
            self._curves[batch] = curve
        return curve

    # -- prefill -----------------------------------------------------------

    def prefill_time(self, batch: int, input_len: int) -> float:
        """Single prefill pass cost (memoized exact pricing).

        Ops come from the executor's backend (quantized / sharded / plain
        as configured), plus the backend's per-pass communication.
        """
        key = (batch, input_len)
        cached = self._prefill.get(key)
        if cached is None:
            timings = self.executor.time_prefill_ops(self.model, batch,
                                                     input_len)
            cached = sum(t.time_s for t in timings) \
                + self.executor.prefill_comm_s(self.model, batch, input_len)
            self._prefill[key] = cached
        return cached

    def prefill_split(self, batch: int, input_len: int):
        """Memoized (compute_s, memory_s) legs of one prefill pass.

        Communication is wall time, not a roofline leg, so it does not
        appear here — matching how the decode curves attribute it.
        """
        key = (batch, input_len)
        cached = self._prefill_split.get(key)
        if cached is None:
            timings = self.executor.time_prefill_ops(self.model, batch,
                                                     input_len)
            cached = (sum(t.compute_s for t in timings),
                      sum(t.memory_s for t in timings))
            self._prefill_split[key] = cached
        return cached

    # -- decode ------------------------------------------------------------

    def step_time(self, batch: int, kv_len: int) -> float:
        """One fused decode iteration at ``(batch, kv_len)``."""
        kv = max(1, kv_len)
        curve = self._curve(batch)
        curve.ensure(kv + 1)
        return curve.prefix_t[kv] - curve.prefix_t[kv - 1]

    def step_split(self, batch: int, kv_len: int):
        """(compute_s, memory_s) legs of one decode iteration."""
        kv = max(1, kv_len)
        curve = self._curve(batch)
        curve.ensure(kv + 1)
        return (curve.prefix_c[kv] - curve.prefix_c[kv - 1],
                curve.prefix_m[kv] - curve.prefix_m[kv - 1])

    def range_cost(self, batch: int, kv_start: int, kv_end: int):
        """(time, compute, memory) summed over ``kv_len`` in ``[kv_start, kv_end)``.

        One subtraction per leg — the closed-form pricing of a whole
        coalesced decode run.
        """
        curve = self._curve(batch)
        curve.ensure(kv_end)
        a, b = kv_start - 1, kv_end - 1
        return (curve.prefix_t[b] - curve.prefix_t[a],
                curve.prefix_c[b] - curve.prefix_c[a],
                curve.prefix_m[b] - curve.prefix_m[a])

    def prefix_times(self, batch: int, kv_end: int) -> List[float]:
        """The cumulative decode-time curve, ensured through ``kv_end``.

        Read-only access to the raw prefix list behind
        :meth:`step_times` / :meth:`range_cost`, for hot callers that
        difference consecutive entries in place instead of
        materializing a per-step list (entry ``kv`` minus entry
        ``kv - 1`` is the iteration cost at that KV length).
        """
        curve = self._curve(batch)
        curve.ensure(kv_end)
        return curve.prefix_t

    def step_times(self, batch: int, kv_start: int,
                   kv_end: int) -> List[float]:
        """Per-iteration times for ``kv_len`` in ``[kv_start, kv_end)``.

        Used to expand a coalesced run back into individual inter-token
        gaps when a caller collects the gap distribution.
        """
        curve = self._curve(batch)
        curve.ensure(kv_end)
        pt = curve.prefix_t
        # Slice-pair differencing: same values as indexing pt[kv]-pt[kv-1]
        # per kv, without a Python-level index computation per step.
        return [b - a for a, b in zip(pt[kv_start - 1:kv_end - 1],
                                      pt[kv_start:kv_end])]

    # -- expected demands (fluid solver) -----------------------------------

    def expected_prefill_time(self, input_range: Tuple[int, int],
                              samples: int = 17) -> float:
        """Mean single-sequence prefill time over a uniform prompt range.

        ``input_range`` is inclusive, matching the workload generators.
        Narrow ranges (at most *samples* lengths) are averaged exactly;
        wide ones integrate a trapezoid through *samples* evenly spaced
        lengths — prefill cost is piecewise smooth in the prompt length
        (affine weight traffic plus a quadratic attention term), so the
        sampled mean tracks the exact one to well under the fluid
        solver's validity envelope while pricing ~17 prefills instead
        of hundreds. Memoized per (range, samples).
        """
        lo, hi = input_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad input range {input_range}")
        key = ("prefill", lo, hi, samples)
        cached = self._expected.get(key)
        if cached is not None:
            return cached
        width = hi - lo + 1
        if width <= samples:
            mean = sum(self.prefill_time(1, length)
                       for length in range(lo, hi + 1)) / width
        else:
            span = hi - lo
            xs = sorted({lo + round(i * span / (samples - 1))
                         for i in range(samples)})
            ys = [self.prefill_time(1, x) for x in xs]
            area = sum((ys[i] + ys[i + 1]) / 2.0 * (xs[i + 1] - xs[i])
                       for i in range(len(xs) - 1))
            mean = area / span
        self._expected[key] = mean
        return mean

    def expected_decode_time(self, batch: int,
                             input_range: Tuple[int, int],
                             output_range: Tuple[int, int]) -> float:
        """Expected decode-phase wall seconds at a fixed batch size.

        For one request with shape ``(Lin, Lout)`` decoding in a batch
        of *batch*, the whole-batch iterations it lives through cost
        ``prefix_t[Lin + Lout - 1] - prefix_t[Lin]`` (its ``Lout - 1``
        steps at kv ``Lin + 1 .. Lin + Lout - 1``). This returns the
        exact expectation of that quantity over independent uniform
        integer draws from the two inclusive ranges: the start term is
        a slice mean, the end term a discrete convolution (trapezoidal
        sum-of-uniforms weights) against the prefix curve. Memoized per
        (batch, ranges) — the fluid solver's per-occupancy demand.
        """
        lo_in, hi_in = input_range
        lo_out, hi_out = output_range
        if lo_in < 1 or hi_in < lo_in:
            raise ValueError(f"bad input range {input_range}")
        if lo_out < 1 or hi_out < lo_out:
            raise ValueError(f"bad output range {output_range}")
        key = ("decode", batch, lo_in, hi_in, lo_out, hi_out)
        cached = self._expected.get(key)
        if cached is not None:
            return cached
        n_in = hi_in - lo_in + 1
        n_out = hi_out - lo_out + 1
        curve = self._curve(batch)
        curve.ensure(hi_in + hi_out)
        pt = curve.prefix_t
        mean_start = sum(pt[lo_in:hi_in + 1]) / n_in
        # S = Lin + Lout has trapezoidal weights; index the curve at
        # S - 1 (the request's last decode kv).
        lo_sum, hi_sum = lo_in + lo_out, hi_in + hi_out
        weights = _np.convolve(_np.full(n_in, 1.0 / n_in),
                               _np.full(n_out, 1.0 / n_out))
        mean_end = float(weights @ _np.asarray(pt[lo_sum - 1:hi_sum]))
        value = mean_end - mean_start
        self._expected[key] = value
        return value

    def steps_within(self, batch: int, kv_start: int, budget: float,
                     limit: int) -> int:
        """Iterations (≤ *limit*) whose start falls strictly inside *budget*.

        Iteration ``j`` (0-based, kv ``kv_start + j``) starts after the
        cumulative cost of its predecessors; it runs iff that start is
        strictly below *budget* — the same strict comparison the step
        loop's event ordering applies, found by one ``bisect`` over the
        prefix curve instead of ``j`` additions.
        """
        curve = self._curve(batch)
        curve.ensure(kv_start + limit)
        base = kv_start - 1
        target = curve.prefix_t[base] + budget
        return bisect.bisect_left(curve.prefix_t, target, base,
                                  base + limit) - base


#: Registry of shared tables, keyed by (pricing signature, model). Model
#: configs are frozen dataclasses, so equal configs share even across
#: separately-built replicas.
_TABLES: Dict[tuple, DecodeCostTable] = {}


def decode_cost_table(executor: OperatorExecutor,
                      model: ModelConfig) -> DecodeCostTable:
    """The shared cost table for *executor*'s pricing signature and *model*."""
    key = (executor.pricing_signature, model)
    table = _TABLES.get(key)
    if table is None:
        table = DecodeCostTable(executor, model)
        _TABLES[key] = table
    return table


def clear_decode_cost_tables() -> None:
    """Empty the table registry (calibration constants changed)."""
    _TABLES.clear()
