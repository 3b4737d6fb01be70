"""Operator executor: prices one :class:`~repro.models.layers.Op` on a platform.

The executor is where hardware meets workload: it selects the best engine
per op (AMX vs AVX-512 on SPR, mirroring IPEX dispatch), applies the
dimension-dependent GEMM efficiency, and composes the roofline
``max(compute, memory)`` with per-launch overhead.
"""

import dataclasses
from typing import Dict, List, Optional

from repro.engine.backend import BaselineBackend, ExecutionBackend
from repro.gemm.efficiency import _gemm_efficiency_cached
from repro.hardware.compute import ComputeEngine, EngineKind
from repro.hardware.datatypes import DType
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.models.layers import Op
from repro.utils.validation import require_positive

# Non-GEMM (bandwidth-bound) kernels run their arithmetic on vector units
# at a reduced fraction of peak — they are not blocked/fused like GEMMs.
_ELEMENTWISE_COMPUTE_EFFICIENCY = 0.35

_OP_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(Op))


def _dim_growth(op_lo: Op, op_hi: Op, span: int):
    """How one op's GEMM dims grow over a decode range of *span* steps.

    Returns ``(analyzable, varying, slope, offset)``: the indices of the
    (m, n, k) dims that differ between the endpoint ops, and — when at
    most one does, by an integral per-step amount — its slope and start
    value. Anything else is not analyzable and is priced densely.
    """
    dims_lo = (op_lo.m, op_lo.n, op_lo.k)
    dims_hi = (op_hi.m, op_hi.n, op_hi.k)
    varying = [i for i in range(3) if dims_lo[i] != dims_hi[i]]
    analyzable = len(varying) <= 1
    slope = offset = 0
    if varying and analyzable:
        delta = dims_hi[varying[0]] - dims_lo[varying[0]]
        if delta % span != 0:
            analyzable = False  # non-integral dim growth: price densely
        else:
            slope = delta // span
            offset = dims_lo[varying[0]]
    return analyzable, varying, slope, offset


@dataclasses.dataclass(frozen=True)
class OpTiming:
    """Priced execution of one operator.

    Attributes:
        op: The operator priced.
        time_s: Roofline time including launch overhead.
        compute_s: Compute leg (0 if the op has no FLOPs).
        memory_s: Memory leg.
        overhead_s: Launch/dispatch overhead charged.
        engine_name: Engine that executed the op's GEMM portion.
        efficiency: Compute efficiency applied.
        memory_bound: Whether the memory leg dominated.
    """

    op: Op
    time_s: float
    compute_s: float
    memory_s: float
    overhead_s: float
    engine_name: str
    efficiency: float
    memory_bound: bool


class OperatorExecutor:
    """Prices operators against one platform configuration.

    Args:
        platform: Target platform.
        dtype: Compute dtype.
        bandwidth: Effective memory bandwidth in bytes/s (already adjusted
            for NUMA configuration, core count, and stream efficiency).
        compute_scale: Multiplier on engine peaks (core-count scaling).
        backend: Execution backend supplying decode/prefill op graphs,
            post-pricing timing adjustments, and per-pass communication.
            Defaults to the plain :class:`~repro.engine.backend.
            BaselineBackend` at *dtype*, which reproduces the historical
            behavior exactly. Callers building an executor for a backend
            should pass ``dtype=backend.compute_dtype``.
    """

    def __init__(self, platform: Platform, dtype: DType, bandwidth: float,
                 compute_scale: float = 1.0,
                 backend: Optional[ExecutionBackend] = None):
        require_positive(bandwidth, "bandwidth")
        require_positive(compute_scale, "compute_scale")
        self.platform = platform
        self.dtype = dtype
        self.bandwidth = bandwidth
        self.compute_scale = compute_scale
        self.backend = backend if backend is not None \
            else BaselineBackend(dtype)
        # Resolved once: the hot pricing loops skip the adjustment call
        # entirely for non-adjusting backends.
        self._adjust = self.backend.adjust_timing if self.backend.adjusts \
            else None
        self._engines = [e for e in platform.engines if e.supports(dtype)]
        if not self._engines:
            raise ValueError(f"{platform.name} has no engine for {dtype}")
        self._vector_like = self._pick_vector_like()
        # Hot-loop constants: scaled peaks and overheads resolved once so
        # per-op pricing is pure arithmetic plus one cached-curve lookup.
        self._scaled_peaks = [e.peak(dtype) * compute_scale
                              for e in self._engines]
        self._elementwise_peak = (self._vector_like.peak(dtype)
                                  * compute_scale
                                  * _ELEMENTWISE_COMPUTE_EFFICIENCY)

    @property
    def pricing_signature(self):
        """Hashable key identifying what this executor prices like.

        Two executors with equal signatures produce identical timings for
        identical ops: platform names map to fixed engine definitions, and
        pricing otherwise depends only on dtype, bandwidth, the compute
        scale, and the backend's op graphs/adjustments (captured by the
        backend signature). Cross-instance memo layers (the serving
        step-cost tables) key on this instead of executor identity.
        """
        return (self.platform.name, self.dtype, self.bandwidth,
                self.compute_scale, self.backend.signature)

    def _pick_vector_like(self) -> ComputeEngine:
        """Engine used for elementwise arithmetic (lowest-peak available)."""
        vectors = [e for e in self._engines if e.kind is EngineKind.VECTOR]
        if vectors:
            return max(vectors, key=lambda e: e.peak(self.dtype))
        return min(self._engines, key=lambda e: e.peak(self.dtype))

    def time_op(self, op: Op) -> OpTiming:
        """Price *op*; GEMM ops try every engine and keep the fastest.

        Engine selection races *unadjusted* candidates; the backend's
        post-pricing adjustment (e.g. dequantization overhead) is applied
        to the winner — the same select-then-inflate order the original
        quantized simulator used.
        """
        memory_s = op.memory_bytes / self.bandwidth if op.memory_bytes else 0.0
        if op.m > 0 and op.n > 0 and op.k > 0:  # op.is_gemm, inlined
            timing = self._time_gemm(op, memory_s)
        else:
            timing = self._time_bandwidth_op(op, memory_s)
        if self._adjust is not None:
            timing = self._adjust(timing)
        return timing

    def _gemm_candidates(self, op: Op, memory_s: float) -> List[OpTiming]:
        """One candidate timing per engine, in platform engine order."""
        candidates: List[OpTiming] = []
        gemm_flops = 2.0 * op.m * op.n * op.k * op.instances
        extra_s = op.extra_flops / self._elementwise_peak \
            if op.extra_flops else 0.0
        for engine, peak in zip(self._engines, self._scaled_peaks):
            eff = _gemm_efficiency_cached(engine.kind, engine.tile,
                                          op.m, op.n, op.k)
            compute_s = gemm_flops / (peak * eff) + extra_s
            overhead_s = engine.launch_overhead_s * op.kernel_launches
            candidates.append(OpTiming(
                op=op,
                time_s=max(compute_s, memory_s) + overhead_s,
                compute_s=compute_s,
                memory_s=memory_s,
                overhead_s=overhead_s,
                engine_name=engine.name,
                efficiency=eff,
                memory_bound=memory_s >= compute_s,
            ))
        return candidates

    def _time_gemm(self, op: Op, memory_s: float) -> OpTiming:
        # Scalar engine race, same first-strict-minimum tie-break as
        # ``min(_gemm_candidates(...), key=time_s)`` but building only the
        # winning OpTiming (this is the hottest call in grid sweeps).
        gemm_flops = 2.0 * op.m * op.n * op.k * op.instances
        extra_s = op.extra_flops / self._elementwise_peak \
            if op.extra_flops else 0.0
        best = None
        for engine, peak in zip(self._engines, self._scaled_peaks):
            eff = _gemm_efficiency_cached(engine.kind, engine.tile,
                                          op.m, op.n, op.k)
            compute_s = gemm_flops / (peak * eff) + extra_s
            overhead_s = engine.launch_overhead_s * op.kernel_launches
            time_s = max(compute_s, memory_s) + overhead_s
            if best is None or time_s < best[0]:
                best = (time_s, compute_s, overhead_s, engine, eff)
        assert best is not None
        time_s, compute_s, overhead_s, engine, eff = best
        return OpTiming(
            op=op,
            time_s=time_s,
            compute_s=compute_s,
            memory_s=memory_s,
            overhead_s=overhead_s,
            engine_name=engine.name,
            efficiency=eff,
            memory_bound=memory_s >= compute_s,
        )

    def _time_bandwidth_op(self, op: Op, memory_s: float) -> OpTiming:
        engine = self._vector_like
        compute_s = 0.0
        if op.extra_flops:
            compute_s = op.extra_flops / self._elementwise_peak
        overhead_s = engine.launch_overhead_s * op.kernel_launches
        return OpTiming(
            op=op,
            time_s=max(compute_s, memory_s) + overhead_s,
            compute_s=compute_s,
            memory_s=memory_s,
            overhead_s=overhead_s,
            engine_name=engine.name,
            efficiency=_ELEMENTWISE_COMPUTE_EFFICIENCY,
            memory_bound=memory_s >= compute_s,
        )

    def time_ops(self, ops: List[Op]) -> List[OpTiming]:
        """Price a whole operator list (one pass)."""
        return [self.time_op(op) for op in ops]

    def _candidates(self, op: Op) -> List[OpTiming]:
        """All engine-candidate timings for *op* (one entry for non-GEMMs).

        Candidates are unadjusted; pick winners with :meth:`_best` so the
        backend adjustment lands after engine selection, matching
        :meth:`time_op`.
        """
        memory_s = op.memory_bytes / self.bandwidth if op.memory_bytes else 0.0
        if op.is_gemm:
            return self._gemm_candidates(op, memory_s)
        return [self._time_bandwidth_op(op, memory_s)]

    def _best(self, candidates: List[OpTiming]) -> OpTiming:
        """Winning candidate with the backend adjustment applied."""
        best = min(candidates, key=lambda t: t.time_s)
        if self._adjust is not None:
            best = self._adjust(best)
        return best

    def _memory_dominated(self, cand_lo: List[OpTiming],
                          cand_hi: List[OpTiming]) -> bool:
        """Whether the roofline max() is memory everywhere in the range.

        Compares each engine's (adjusted) compute leg at the top of the
        range against its memory leg at the bottom — compute is monotone
        non-decreasing in kv and memory affine increasing, so this bounds
        the whole range. Adjustments never touch the memory leg, so using
        the adjusted compute keeps the check conservative for adjusting
        backends.
        """
        if self._adjust is None:
            return all(c1.compute_s <= c0.memory_s
                       for c0, c1 in zip(cand_lo, cand_hi))
        adjust = self._adjust
        return all(adjust(c1).compute_s <= c0.memory_s
                   for c0, c1 in zip(cand_lo, cand_hi))

    # -- prefill pricing -----------------------------------------------------

    def time_prefill_ops(self, model: ModelConfig, batch_size: int,
                         input_len: int) -> List[OpTiming]:
        """Price one prefill pass of the backend's op graph.

        Per-op timings only; the backend's per-pass communication
        (:meth:`prefill_comm_s`) is charged separately to wall time.
        """
        ops = self.backend.prefill_ops(model, batch_size, input_len)
        return [self.time_op(op) for op in ops]

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        """Backend communication time for one prefill pass (seconds)."""
        return self.backend.prefill_comm_s(model, batch_size, input_len)

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        """Backend communication time per decode iteration (seconds)."""
        return self.backend.decode_comm_s(model, batch_size)

    # -- closed-form decode pricing ------------------------------------------

    def time_decode_range(self, model: ModelConfig, batch_size: int,
                          kv_start: int, kv_end: int) -> "DecodeRangeTiming":
        """Price every decode step with ``kv_len`` in ``[kv_start, kv_end)``.

        Equivalent to pricing :func:`~repro.models.opgraph.decode_step_ops`
        once per step and summing, but analytical: each op's verified
        affine runs (:meth:`_decode_op_runs`) sum in closed form as
        arithmetic series, so results agree with the step loop to within
        floating-point noise (well under 1e-9 relative).

        Runs in O(#ops + #breakpoints) per-step pricings instead of
        O(steps x ops x engines).
        """
        steps = kv_end - kv_start
        if steps <= 0:
            return DecodeRangeTiming(steps=0, time_s=0.0, compute_s=0.0,
                                     memory_s=0.0, flops=0.0,
                                     weight_bytes=0.0, activation_bytes=0.0,
                                     kv_read_bytes=0.0, kv_write_bytes=0.0,
                                     op_times={})
        time_s = compute_s = memory_s = 0.0
        flops = weight_b = act_b = kvr_b = kvw_b = 0.0
        op_times: Dict[str, float] = {}
        for op_lo, op_hi, runs in self._decode_op_runs(model, batch_size,
                                                       kv_start, kv_end):
            # Byte/FLOP accounting is affine in kv_len for every op, so the
            # whole range sums by trapezoid on the endpoint graphs.
            flops += steps * (op_lo.flops + op_hi.flops) / 2.0
            weight_b += steps * (op_lo.weight_bytes + op_hi.weight_bytes) / 2.0
            act_b += steps * (op_lo.activation_bytes + op_hi.activation_bytes) / 2.0
            kvr_b += steps * (op_lo.kv_read_bytes + op_hi.kv_read_bytes) / 2.0
            kvw_b += steps * (op_lo.kv_write_bytes + op_hi.kv_write_bytes) / 2.0
            t_sum = c_sum = m_sum = 0.0
            for lo, hi, first, last in runs:
                # Arithmetic-series sum; a one-step run adds its timing
                # exactly (doubling and halving are exact).
                count = hi - lo
                t_sum += count * (first.time_s + last.time_s) / 2.0
                c_sum += count * (first.compute_s + last.compute_s) / 2.0
                m_sum += count * (first.memory_s + last.memory_s) / 2.0
            time_s += t_sum
            compute_s += c_sum
            memory_s += m_sum
            op_times[op_lo.name] = op_times.get(op_lo.name, 0.0) + t_sum
        comm = self.backend.decode_comm_s(model, batch_size)
        if comm:
            # Per-iteration communication (TP allreduce) is constant in
            # kv_len; charged to wall time only, like the step loop does.
            time_s += steps * comm
        return DecodeRangeTiming(
            steps=steps, time_s=time_s, compute_s=compute_s,
            memory_s=memory_s, flops=flops, weight_bytes=weight_b,
            activation_bytes=act_b, kv_read_bytes=kvr_b, kv_write_bytes=kvw_b,
            op_times=op_times)

    def time_decode_series(self, model: ModelConfig, batch_size: int,
                           kv_start: int, kv_end: int):
        """Per-step decode pricing for every ``kv_len`` in ``[kv_start, kv_end)``.

        Returns three lists of length ``kv_end - kv_start`` — per-step
        ``(time_s, compute_s, memory_s)`` — from the same verified affine
        runs as :meth:`time_decode_range`: interior steps of each run are
        filled by endpoint interpolation, so every value matches the exact
        pricer to within the runs' probe tolerance (1e-11 relative). The
        serving layer's step-cost tables turn these into prefix sums,
        which is what lets a discrete-event simulator fast-forward whole
        decode intervals.

        Runs in O(#ops x #breakpoints) per-step pricings plus O(steps)
        arithmetic, instead of O(steps x ops x engines).
        """
        steps = kv_end - kv_start
        if steps <= 0:
            return [], [], []
        out_t = [0.0] * steps
        out_c = [0.0] * steps
        out_m = [0.0] * steps
        for _, _, runs in self._decode_op_runs(model, batch_size,
                                               kv_start, kv_end):
            for lo, hi, first, last in runs:
                t0, c0, m0 = first.time_s, first.compute_s, first.memory_s
                base = lo - kv_start
                if first is last:
                    # Constant run (a kv-independent op or one dense
                    # step): plain adds.
                    if hi - lo == 1:
                        out_t[base] += t0
                        out_c[base] += c0
                        out_m[base] += m0
                        continue
                    for idx in range(base, base + hi - lo):
                        out_t[idx] += t0
                        out_c[idx] += c0
                        out_m[idx] += m0
                    continue
                span = hi - 1 - lo
                dt = (last.time_s - t0) / span
                dc = (last.compute_s - c0) / span
                dm = (last.memory_s - m0) / span
                for i in range(hi - lo):
                    idx = base + i
                    out_t[idx] += t0 + dt * i
                    out_c[idx] += c0 + dc * i
                    out_m[idx] += m0 + dm * i
        comm = self.backend.decode_comm_s(model, batch_size)
        if comm:
            # Per-iteration communication rides every step's wall time.
            for i in range(steps):
                out_t[i] += comm
        return out_t, out_c, out_m

    def _decode_op_runs(self, model: ModelConfig, batch_size: int,
                        kv_start: int, kv_end: int):
        """Yield ``(op_lo, op_hi, runs)`` for each op of one decode range.

        ``op_lo`` and ``op_hi`` are the op at ``kv_start`` and
        ``kv_end - 1``. ``runs`` tiles ``[kv_start, kv_end)`` in order
        with ``(lo, hi, first, last)``: the op's best-engine timing is
        affine in ``kv_len`` over ``[lo, hi)``, and ``first``/``last`` are
        its exact :class:`OpTiming` at ``lo`` and ``hi - 1``. A
        kv_len-independent op is one run with ``first is last``; a step
        priced densely is a one-step run.

        Per-op decode time is piecewise affine in ``kv_len`` (memory leg
        linear, each engine's compute leg affine between tile-padding
        boundaries, weight streaming constant). Run boundaries come from
        tile-quantization steps, compute/memory roofline crossovers, and
        best-engine flips; every run is verified against a probe of the
        exact per-step pricer and bisected down to dense pricing if the
        affine assumption fails.
        """
        steps = kv_end - kv_start
        backend = self.backend
        ops_lo = backend.decode_ops(model, batch_size, kv_start)
        ops_hi = backend.decode_ops(model, batch_size, kv_end - 1)
        # One interior build validates the endpoint-interpolated op
        # reconstruction (see _interior_op_factory); short ranges go
        # through the graph builder.
        kv_mid = kv_start + steps // 2
        ops_mid = backend.decode_ops(model, batch_size, kv_mid) \
            if steps > 8 else None
        for index, (op_lo, op_hi) in enumerate(zip(ops_lo, ops_hi)):
            if op_lo == op_hi:
                timing = self.time_op(op_lo)
                runs = [(kv_start, kv_end, timing, timing)]
            else:
                runs = self._varying_op_runs(
                    model, batch_size, index, op_lo, op_hi, kv_start, kv_end,
                    kv_mid, ops_mid[index] if ops_mid is not None else None)
            yield op_lo, op_hi, runs

    def _varying_op_runs(self, model: ModelConfig, batch_size: int,
                         index: int, op_lo: Op, op_hi: Op,
                         kv_start: int, kv_end: int,
                         kv_mid: int, op_mid: Optional[Op]) -> list:
        """Verified affine runs of one kv-varying op (see _decode_op_runs)."""
        span = kv_end - 1 - kv_start
        growth = _dim_growth(op_lo, op_hi, span)
        analyzable, varying, slope, offset = growth
        # Interior ops are reconstructed without building the step graph
        # when the reconstruction provably matches the builder (checked
        # against the builder's own midpoint op); otherwise every probe
        # rebuilds the full step graph.
        op_at = None
        if op_mid is not None:
            op_at = self._interior_op_factory(
                self.backend, model, batch_size, index, op_lo, op_hi, growth,
                kv_start, span, kv_mid, op_mid)
        if op_at is None:
            def op_at(kv: int) -> Op:
                return self.backend.decode_ops(model, batch_size, kv)[index]

        memo: Dict[int, OpTiming] = {}

        def timing_at(kv: int) -> OpTiming:
            cached = memo.get(kv)
            if cached is None:
                cached = self.time_op(op_at(kv))
                memo[kv] = cached
            return cached

        runs: list = []
        if not analyzable:
            self._dense_runs(timing_at, kv_start, kv_end, runs)
            return runs

        # Memory-dominated fast path: GEMM compute time is monotone
        # non-decreasing in every dimension (the gemm_efficiency
        # invariant) and the memory leg is affine increasing, so if every
        # engine's compute leg at the top of the range sits below its
        # memory leg at the bottom, the roofline max() never sees compute
        # anywhere in the range. All candidates then price as parallel
        # affine lines (shared memory leg + constant overhead): one
        # winner, one affine run, no tile cuts or crossovers. This is the
        # common case — decode attention is memory-bound on every
        # platform the paper evaluates. The probe check in _affine_runs
        # still verifies the conclusion.
        cand_lo = self._candidates(op_lo)
        cand_hi = self._candidates(op_hi)
        if self._memory_dominated(cand_lo, cand_hi):
            memo.setdefault(kv_start, self._best(cand_lo))
            memo.setdefault(kv_end - 1, self._best(cand_hi))
            self._affine_runs(timing_at, kv_start, kv_end, runs)
            return runs

        bounds = self._tile_cut_bounds(varying, slope, offset,
                                       kv_start, kv_end)
        for lo, hi in zip(bounds, bounds[1:]):
            self._tile_segment_runs(timing_at, op_at, memo, lo, hi, runs)
        return runs

    def _interior_op_factory(self, backend: ExecutionBackend,
                             model: ModelConfig, batch_size: int, index: int,
                             op_lo: Op, op_hi: Op, growth, kv_start: int,
                             span: int, kv_mid: int, op_mid: Op):
        """``op_at(kv)`` for op *index* of *backend*'s decode graph, or None.

        *growth* is ``_dim_growth(op_lo, op_hi, span)``. Tries the
        endpoint reconstruction of :meth:`_affine_op_factory` first. An
        op that is not affine in ``kv_len`` — tensor parallelism
        floor-divides the attention score GEMM's ``n`` (the KV length) by
        the degree, a staircase — is instead rebuilt from the backend's
        :meth:`~repro.engine.backend.ExecutionBackend.decode_op_source`:
        the same op of the source graph, itself reconstructed
        (recursively), then put through the backend's per-op rewrite.
        Whichever way is taken must reproduce the builder's midpoint op
        field for field, so priced steps are identical to rebuilding the
        whole graph at every ``kv``.
        """
        analyzable, varying, slope, offset = growth
        if analyzable:
            dim_field = ("m", "n", "k")[varying[0]] if varying else None
            synth = self._affine_op_factory(op_lo, op_hi, kv_start, span,
                                            dim_field, slope, offset)
            if synth is not None and synth(kv_mid) == op_mid:
                return synth
        source = backend.decode_op_source()
        if source is None:
            return None
        inner, rewrite = source

        def inner_op(kv: int) -> Op:
            return inner.decode_ops(model, batch_size, kv)[index]

        inner_lo, inner_hi = inner_op(kv_start), inner_op(kv_start + span)
        inner_at = self._interior_op_factory(
            inner, model, batch_size, index, inner_lo, inner_hi,
            _dim_growth(inner_lo, inner_hi, span), kv_start, span, kv_mid,
            inner_op(kv_mid))
        if inner_at is None:
            return None

        def op_at(kv: int) -> Op:
            return rewrite(inner_at(kv))

        return op_at if op_at(kv_mid) == op_mid else None

    def _tile_cut_bounds(self, varying, slope: int, offset: int,
                         kv_start: int, kv_end: int) -> List[int]:
        """Sorted segment bounds at tile-quantization boundaries.

        Compute time steps up whenever the varying dimension enters a new
        native tile; cutting there leaves segments where every engine's
        legs are affine in ``kv_len``.
        """
        cuts = {kv_start, kv_end}
        if varying and slope > 0:
            for engine in self._engines:
                if engine.tile is None:
                    continue
                tile_dim = (engine.tile.m, engine.tile.n,
                            engine.tile.k)[varying[0]]
                # First block boundary strictly past the start dimension.
                block = (offset - 1) // tile_dim + 1
                while True:
                    # kv at which dim first exceeds block*tile_dim.
                    dim_target = block * tile_dim + 1
                    kv_b = kv_start + -(-(dim_target - offset) // slope)
                    if kv_b >= kv_end:
                        break
                    if kv_b > kv_start:
                        cuts.add(kv_b)
                    block += 1
        return sorted(cuts)

    @staticmethod
    def _affine_op_factory(op_lo: Op, op_hi: Op, kv_start: int, span: int,
                           dim_field: Optional[str], slope: int, offset: int):
        """Build ``op_at(kv)`` reconstructing interior ops from endpoints.

        Decode-step op fields are affine in ``kv_len`` by construction of
        the op graph, so the op at any interior ``kv`` equals the endpoint
        op with its varying fields advanced by exact per-step deltas.
        Returns ``None`` when a field's per-step delta is not exactly
        representable (the caller then falls back to the graph builder);
        the caller additionally cross-checks the factory output against a
        builder-produced midpoint op before trusting it.
        """
        if (op_lo.name != op_hi.name or op_lo.kind is not op_hi.kind
                or op_lo.instances != op_hi.instances
                or op_lo.kernel_launches != op_hi.kernel_launches):
            return None
        deltas = []
        for field in ("weight_bytes", "activation_bytes", "kv_read_bytes",
                      "kv_write_bytes", "extra_flops"):
            lo_v = getattr(op_lo, field)
            hi_v = getattr(op_hi, field)
            if lo_v != hi_v:
                per_step = (hi_v - lo_v) / span
                if lo_v + per_step * span != hi_v:
                    return None
                deltas.append((field, lo_v, per_step))
        base = {name: getattr(op_lo, name) for name in _OP_FIELD_NAMES}

        def op_at(kv: int) -> Op:
            step = kv - kv_start
            if step == 0:
                return op_lo
            if step == span:
                return op_hi
            kwargs = dict(base)
            for field, lo_v, per_step in deltas:
                kwargs[field] = lo_v + per_step * step
            if dim_field is not None:
                kwargs[dim_field] = offset + slope * step
            return Op(**kwargs)

        return op_at

    def _tile_segment_runs(self, timing_at, op_at, memo: Dict[int, OpTiming],
                           lo: int, hi: int, runs: list) -> None:
        """Runs of one segment where every engine's legs are affine in kv_len.

        Within a tile-aligned segment each engine candidate is
        ``max(affine compute, affine memory) + overhead``; every breakpoint
        of the best-engine minimum lies at an intersection of two of those
        lines, so cutting at all pairwise intersections leaves purely
        affine runs.
        """
        count = hi - lo
        if count <= 4:
            self._dense_runs(timing_at, lo, hi, runs)
            return
        span = hi - 1 - lo
        cand_lo = self._candidates(op_at(lo))
        cand_hi = self._candidates(op_at(hi - 1))
        # The endpoint winners double as the affine-run endpoint pricings.
        memo.setdefault(lo, self._best(cand_lo))
        memo.setdefault(hi - 1, self._best(cand_hi))
        lines = []
        for c0, c1 in zip(cand_lo, cand_hi):
            lines.append((c0.compute_s + c0.overhead_s,
                          (c1.compute_s - c0.compute_s) / span))
            lines.append((c0.memory_s + c0.overhead_s,
                          (c1.memory_s - c0.memory_s) / span))
        cuts = {lo, hi}
        for i in range(len(lines)):
            a0, b0 = lines[i]
            for j in range(i + 1, len(lines)):
                a1, b1 = lines[j]
                if b0 == b1:
                    continue
                x = (a1 - a0) / (b0 - b1)
                if 0.0 < x < span:
                    kv_x = lo + int(x)
                    for kv_c in (kv_x, kv_x + 1):
                        if lo < kv_c < hi:
                            cuts.add(kv_c)
        bounds = sorted(cuts)
        for a, b in zip(bounds, bounds[1:]):
            self._affine_runs(timing_at, a, b, runs)

    def _affine_runs(self, timing_at, lo: int, hi: int, runs: list) -> None:
        """Append ``[lo, hi)`` as probe-verified affine runs.

        A midpoint probe of the exact pricer must match the endpoint
        interpolation (1e-11 relative) in every leg; otherwise the range
        is bisected, down to dense pricing — the guarantee that the fast
        path can never silently diverge from the per-step loop.
        """
        count = hi - lo
        if count <= 4:
            self._dense_runs(timing_at, lo, hi, runs)
            return
        t_lo, t_hi = timing_at(lo), timing_at(hi - 1)
        span = count - 1
        probe = lo + span // 2
        t_p = timing_at(probe)
        frac = (probe - lo) / span
        for got, f0, f1 in ((t_p.time_s, t_lo.time_s, t_hi.time_s),
                            (t_p.compute_s, t_lo.compute_s, t_hi.compute_s),
                            (t_p.memory_s, t_lo.memory_s, t_hi.memory_s)):
            want = f0 + (f1 - f0) * frac
            if abs(got - want) > 1e-11 * max(abs(got), abs(want), 1e-30):
                mid = lo + count // 2
                self._affine_runs(timing_at, lo, mid, runs)
                self._affine_runs(timing_at, mid, hi, runs)
                return
        runs.append((lo, hi, t_lo, t_hi))

    @staticmethod
    def _dense_runs(timing_at, lo: int, hi: int, runs: list) -> None:
        """Append every step of ``[lo, hi)`` as a one-step run."""
        for kv in range(lo, hi):
            t = timing_at(kv)
            runs.append((kv, kv + 1, t, t))


@dataclasses.dataclass(frozen=True)
class DecodeRangeTiming:
    """Aggregate pricing of a whole decode phase (all steps summed).

    Mirrors the sums a per-step loop would accumulate into
    :class:`~repro.engine.results.PhaseStats`.

    Attributes:
        steps: Decode steps priced.
        time_s: Total phase time.
        compute_s / memory_s: Busy-time sums of the chosen rooflines.
        flops: Total FLOPs executed.
        weight_bytes / activation_bytes / kv_read_bytes / kv_write_bytes:
            Memory traffic by category.
        op_times: Total time per operator name.
    """

    steps: int
    time_s: float
    compute_s: float
    memory_s: float
    flops: float
    weight_bytes: float
    activation_bytes: float
    kv_read_bytes: float
    kv_write_bytes: float
    op_times: Dict[str, float]
