"""Execution backends: one abstraction for every engine variant.

Historically each engine variant (weight-only quantization, tensor
parallelism, speculative decoding, prefix caching) lived in its own
wrapper simulator that could only run single batch-to-completion
requests. What actually differs between the variants is small and
well-defined — and it is exactly what :class:`ExecutionBackend` owns:

* **op-graph construction** — the prefill / decode operator lists,
  including any rewrite (quantized weight streams, TP sharding,
  speculative draft+verify cycles, prefix-KV reuse);
* **compute dtype** — what the GEMM engines execute in (INT8 dispatch
  for full-INT8 quantization);
* **footprint accounting** — resident weight/KV/activation bytes, which
  feed capacity checks and NUMA bandwidth derivation;
* **post-pricing adjustment** — per-op timing rewrites that ride the
  roofline result (dequantization overhead on weight GEMMs);
* **communication** — per-pass constant costs outside the op graph
  (TP allreduce), charged to wall time but not the compute/memory legs;
* **signature** — a stable hashable key: two backends with equal
  signatures price identically, so shared cost tables
  (:mod:`repro.engine.stepcost`) key on it.

Backends are frozen dataclasses: hashable (so rewritten op graphs are
memoized per backend instance) and comparable (so equal configurations
share caches). Every execution layer threads them through — the
:class:`~repro.engine.executor.OperatorExecutor` closed-form decode
pricing, :class:`~repro.engine.stepcost.DecodeCostTable`,
:class:`~repro.engine.inference.InferenceSimulator`, the batching
policies, :class:`~repro.cluster.node.ReplicaNode` fast-forward, and
the cluster — which is what lets a fleet mix replicas running different
backends while routers compare costs from the same backend-keyed
tables. See ``docs/backends.md``.
"""

import dataclasses
import difflib
import functools
from typing import Callable, Optional, Tuple

from repro.hardware.datatypes import DType, parse_dtype
from repro.hardware.interconnect import Interconnect, upi_link
from repro.hardware.platform import Platform
from repro.models.config import ModelConfig
from repro.models.layers import Op, OpKind
from repro.models.memory import (
    inference_footprint_bytes,
    kv_cache_bytes,
    peak_activation_bytes,
    weight_bytes,
)
from repro.models.opgraph import _decode_step_ops_cached, _prefill_ops_cached
from repro.numa.model import (
    DEFAULT_NUMA_CALIBRATION,
    NumaCalibration,
    NumaModel,
)
from repro.numa.modes import NumaConfig, QUAD_FLAT, get_config
from repro.quant.weightonly import (
    QuantConfig,
    QuantScheme,
    quantize_ops,
    quantized_weight_bytes,
)
from repro.utils.validation import require_positive


# Rewritten op graphs are memoized per (backend, model, shape) — backends
# are frozen dataclasses, so equal configurations share entries. Wired
# into repro.experiments.clear_caches alongside the base opgraph caches.

@functools.lru_cache(maxsize=4096)
def _cached_prefill_ops(backend: "ExecutionBackend", model: ModelConfig,
                        batch_size: int, input_len: int) -> Tuple[Op, ...]:
    return tuple(backend._build_prefill_ops(model, batch_size, input_len))


@functools.lru_cache(maxsize=8192)
def _cached_decode_ops(backend: "ExecutionBackend", model: ModelConfig,
                       batch_size: int, kv_len: int) -> Tuple[Op, ...]:
    return tuple(backend._build_decode_ops(model, batch_size, kv_len))


def clear_backend_op_caches() -> None:
    """Drop memoized backend-rewritten op graphs and hybrid GPU legs."""
    _cached_prefill_ops.cache_clear()
    _cached_decode_ops.cache_clear()
    _HYBRID_EXECUTORS.clear()
    _hybrid_prefill_leg.cache_clear()


def scale_op(op: Op, factor: float) -> Op:
    """Scale an op so its priced time is *factor* x the original.

    Multiplies everything the roofline composes linearly — instance
    count, all byte traffic, extra FLOPs, and kernel launches — while
    leaving the per-instance GEMM shape (and hence the efficiency
    lookup) untouched, so ``time(scale_op(op, f)) == f * time(op)`` up
    to floating-point rounding. Speculative decoding uses this to fold
    "gamma draft steps + one verify pass per E[tokens] generated" into
    a single per-token op graph.
    """
    return dataclasses.replace(
        op,
        instances=op.instances * factor,
        weight_bytes=op.weight_bytes * factor,
        activation_bytes=op.activation_bytes * factor,
        kv_read_bytes=op.kv_read_bytes * factor,
        kv_write_bytes=op.kv_write_bytes * factor,
        extra_flops=op.extra_flops * factor,
        kernel_launches=op.kernel_launches * factor,
    )


def shard_op(op: Op, degree: int) -> Op:
    """Shard one operator's weights/compute across a TP group of *degree*.

    Weight GEMMs split along the output dimension: each shard does 1/S
    of the FLOPs and streams 1/S of the weights. Every GEMM's ``n`` is
    floor-divided by S (at least 1) — for the attention score GEMM
    ``attn_qk`` that is the KV length, not the head count, so its
    per-shard shape is a staircase in ``kv_len``. All byte and extra-FLOP
    traffic scales by 1/S; the replicated hidden-state reads are a
    second-order term folded in with the same factor.
    """
    return dataclasses.replace(
        op,
        instances=op.instances,
        m=op.m, n=max(1, op.n // degree) if op.is_gemm else op.n, k=op.k,
        weight_bytes=op.weight_bytes / degree,
        activation_bytes=op.activation_bytes / degree,
        kv_read_bytes=op.kv_read_bytes / degree,
        kv_write_bytes=op.kv_write_bytes / degree,
        extra_flops=op.extra_flops / degree,
    )


@dataclasses.dataclass(frozen=True)
class TPConfig:
    """Tensor-parallel configuration.

    Attributes:
        degree: Shards (sockets). The SPR server supports 2.
        allreduce_efficiency: Achieved fraction of UPI bandwidth for the
            ring-allreduce pattern (latency-bound chunks, bidirectional).
    """

    degree: int = 2
    allreduce_efficiency: float = 0.7

    def __post_init__(self) -> None:
        require_positive(self.degree, "degree")
        if not 0 < self.allreduce_efficiency <= 1:
            raise ValueError("allreduce_efficiency must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class SpecDecodeConfig:
    """Speculative-decoding parameters.

    Attributes:
        gamma: Draft tokens proposed per cycle.
        acceptance_rate: Per-token probability the target accepts a draft
            token (depends on draft/target agreement; 0.7-0.9 is typical
            for a well-matched draft).
    """

    gamma: int = 4
    acceptance_rate: float = 0.8

    def __post_init__(self) -> None:
        require_positive(self.gamma, "gamma")
        if not 0 < self.acceptance_rate < 1:
            raise ValueError(
                f"acceptance_rate must be in (0, 1), got {self.acceptance_rate}")

    @property
    def expected_tokens_per_cycle(self) -> float:
        """E[accepted tokens + 1 bonus token] per verification cycle."""
        alpha, gamma = self.acceptance_rate, self.gamma
        return (1.0 - alpha ** (gamma + 1)) / (1.0 - alpha)


class ExecutionBackend:
    """Base execution backend: plain BF16-style pass-through semantics.

    Subclasses override the ``_build_*`` hooks (memoized through the
    module caches) plus whichever of dtype/footprint/adjust/comm hooks
    their technique changes. All subclasses must be frozen dataclasses —
    hashability is what keys the op-graph memo and, through
    :attr:`signature`, the shared cost tables.
    """

    #: Whether :meth:`adjust_timing` is non-identity. The executor skips
    #: the adjustment call entirely when this is False.
    adjusts: bool = False

    # -- identification -----------------------------------------------------

    @property
    def signature(self) -> tuple:
        """Hashable pricing identity: equal signature => equal timings."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Short human-readable tag ("bf16", "int8-tp2", ...)."""
        raise NotImplementedError

    # -- dtype --------------------------------------------------------------

    @property
    def compute_dtype(self) -> DType:
        """Dtype the GEMM engines execute in (selects engine peaks)."""
        return self.dtype  # type: ignore[attr-defined]

    # -- op-graph construction ----------------------------------------------

    def prefill_ops(self, model: ModelConfig, batch_size: int,
                    input_len: int) -> Tuple[Op, ...]:
        """Memoized operator list for one prefill pass."""
        return _cached_prefill_ops(self, model, batch_size, input_len)

    def decode_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        """Memoized operator list for one fused decode iteration."""
        return _cached_decode_ops(self, model, batch_size, kv_len)

    def decode_op_source(self) -> Optional[
            Tuple["ExecutionBackend", Callable[[Op], Op]]]:
        """The graph this backend's decode graph maps op for op, if any.

        ``(source, rewrite)`` means ``decode_ops(..., kv)[i] ==
        rewrite(source.decode_ops(..., kv)[i])`` at every ``kv``. The
        executor's closed-form decode analysis uses it to rebuild one op
        at many KV lengths from the source graph when the op itself is
        not affine in ``kv_len``, instead of building the whole step
        graph at each. ``None`` (the default): the graph is built
        directly.
        """
        return None

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        raise NotImplementedError

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        raise NotImplementedError

    # -- footprint accounting -----------------------------------------------

    def weight_bytes(self, model: ModelConfig) -> float:
        """Resident model-weight bytes under this backend."""
        return weight_bytes(model, self.dtype)  # type: ignore[attr-defined]

    def footprint_bytes(self, model: ModelConfig, request) -> float:
        """Peak resident bytes for *request* (weights + KV + activations)."""
        dtype = self.dtype  # type: ignore[attr-defined]
        return inference_footprint_bytes(
            model, request.max_seq_len, request.batch_size, dtype)

    @property
    def capacity_scale(self) -> float:
        """Memory-capacity multiplier (TP spans multiple sockets)."""
        return 1.0

    # -- memory-system hooks ------------------------------------------------

    def tier_bandwidth(self, platform: Platform,
                       footprint_bytes: float) -> Optional[float]:
        """Sustained kernel bandwidth override, bytes/s (pre core-scaling).

        ``None`` (the default) keeps the simulator's own derivation —
        the engine-config NUMA model on CPUs, peak x stream efficiency
        on GPUs. :class:`NumaBackend` overrides this to price its own
        HBM/DDR placement; wrappers forward to their inner backend. On
        CPUs the simulator still applies the core-scaling bandwidth
        factor on top, exactly as for the engine-config path.
        """
        return None

    def memory_capacity_bytes(self, platform: Platform) -> Optional[float]:
        """Usable memory-capacity override, bytes (pre socket-spanning).

        ``None`` keeps the simulator's engine-config derivation.
        :class:`NumaBackend` overrides this with its configuration's
        software-visible capacity (HBM-only < cache < flat).
        """
        return None

    # -- pricing hooks ------------------------------------------------------

    def adjust_timing(self, timing):
        """Post-pricing rewrite of one winning OpTiming (identity here).

        Applied by the executor *after* engine selection, matching the
        select-uninflated-then-inflate order of the original quantized
        simulator. Must only touch ``compute_s``/``time_s`` — the
        memory leg stays the roofline's, so the closed-form decode
        analysis keeps its affine structure.
        """
        return timing

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        """Constant per-prefill-pass communication time (seconds)."""
        return 0.0

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        """Constant per-decode-iteration communication time (seconds)."""
        return 0.0


@dataclasses.dataclass(frozen=True)
class BaselineBackend(ExecutionBackend):
    """Plain dense execution at one dtype (the paper's BF16 baseline)."""

    dtype: DType = DType.BF16

    # The base op graphs are already memoized in repro.models.opgraph;
    # skip the second cache layer entirely.
    def prefill_ops(self, model: ModelConfig, batch_size: int,
                    input_len: int) -> Tuple[Op, ...]:
        return _prefill_ops_cached(model, batch_size, input_len,
                                   self.dtype, False)

    def decode_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        return _decode_step_ops_cached(model, batch_size, kv_len, self.dtype)

    @property
    def signature(self) -> tuple:
        return ("baseline", self.dtype)

    @property
    def label(self) -> str:
        return self.dtype.label


@dataclasses.dataclass(frozen=True)
class QuantizedBackend(ExecutionBackend):
    """Weight-only / full-INT8 quantized execution.

    Applies the :func:`~repro.quant.weightonly.quantize_ops` rewrite to
    the base graphs, prices at the scheme's compute dtype, sizes the
    footprint with quantized weights and KV, and inflates the compute
    leg of weight GEMMs by the dequantization overhead (weight-only
    schemes) after engine selection.
    """

    quant: QuantConfig = QuantConfig()
    dtype: DType = DType.BF16  # activation dtype of the base graph

    @property
    def compute_dtype(self) -> DType:
        return self.quant.compute_dtype

    @property
    def adjusts(self) -> bool:  # type: ignore[override]
        weight_only = self.quant.scheme in (QuantScheme.WEIGHT_ONLY_INT8,
                                            QuantScheme.WEIGHT_ONLY_INT4)
        return bool(weight_only and self.quant.dequant_overhead)

    def adjust_timing(self, timing):
        op = timing.op
        if op.weight_bytes > 0 and op.is_gemm:
            # Dequantization rides the GEMM inner loop: inflate the
            # compute leg of weight GEMMs by the configured fraction.
            extra = timing.compute_s * self.quant.dequant_overhead
            return dataclasses.replace(
                timing,
                compute_s=timing.compute_s + extra,
                time_s=max(timing.compute_s + extra,
                           timing.memory_s) + timing.overhead_s)
        return timing

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        base = _prefill_ops_cached(model, batch_size, input_len,
                                   self.dtype, False)
        return tuple(quantize_ops(base, self.quant))

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        base = _decode_step_ops_cached(model, batch_size, kv_len, self.dtype)
        return tuple(quantize_ops(base, self.quant))

    def weight_bytes(self, model: ModelConfig) -> float:
        return quantized_weight_bytes(model, self.quant)

    def footprint_bytes(self, model: ModelConfig, request) -> float:
        return (quantized_weight_bytes(model, self.quant)
                + kv_cache_bytes(model, request.max_seq_len,
                                 request.batch_size, self.dtype)
                * self.quant.kv_bytes_ratio()
                + peak_activation_bytes(model, request.max_seq_len,
                                        request.batch_size, self.dtype))

    @property
    def signature(self) -> tuple:
        return ("quant", self.quant, self.dtype)

    @property
    def label(self) -> str:
        return {
            QuantScheme.NONE: self.dtype.label,
            QuantScheme.WEIGHT_ONLY_INT8: "int8",
            QuantScheme.WEIGHT_ONLY_INT4: "int4",
            QuantScheme.FULL_INT8: "w8a8",
        }[self.quant.scheme]


@dataclasses.dataclass(frozen=True)
class TensorParallelBackend(ExecutionBackend):
    """Tensor-parallel execution across CPU sockets.

    Shards every operator of the *inner* backend's graph (so TP
    composes with quantization: quantize first, then shard the shrunken
    weight stream) and charges the ring-allreduce on the hidden state —
    twice per layer — as per-pass communication time. Bandwidth derives
    from the full unsharded footprint, matching the original
    :class:`~repro.parallel.tensor_parallel.TensorParallelSimulator`;
    capacity scales by the degree (the shards span that many sockets).
    """

    tp: TPConfig = TPConfig()
    interconnect: Interconnect = dataclasses.field(default_factory=upi_link)
    inner: Optional[ExecutionBackend] = None
    dtype: DType = DType.BF16

    def _resolved_inner(self) -> ExecutionBackend:
        return self.inner if self.inner is not None \
            else BaselineBackend(self.dtype)

    @property
    def compute_dtype(self) -> DType:
        return self._resolved_inner().compute_dtype

    @property
    def adjusts(self) -> bool:  # type: ignore[override]
        return self._resolved_inner().adjusts

    def adjust_timing(self, timing):
        return self._resolved_inner().adjust_timing(timing)

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        inner = self._resolved_inner()
        return tuple(shard_op(op, self.tp.degree)
                     for op in inner.prefill_ops(model, batch_size,
                                                 input_len))

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        inner = self._resolved_inner()
        return tuple(shard_op(op, self.tp.degree)
                     for op in inner.decode_ops(model, batch_size, kv_len))

    def decode_op_source(self):
        return self._resolved_inner(), functools.partial(
            shard_op, degree=self.tp.degree)

    def weight_bytes(self, model: ModelConfig) -> float:
        return self._resolved_inner().weight_bytes(model)

    def footprint_bytes(self, model: ModelConfig, request) -> float:
        return self._resolved_inner().footprint_bytes(model, request)

    @property
    def capacity_scale(self) -> float:
        return float(self.tp.degree)

    def allreduce_s(self, model: ModelConfig, rows: int,
                    dtype_bytes: int = 2) -> float:
        """Two hidden-state allreduces per layer (ring: 2(S-1)/S volume)."""
        s = self.tp.degree
        if s == 1:
            return 0.0
        payload = 2 * model.n_layers * rows * model.d_model * dtype_bytes
        ring_volume = payload * 2 * (s - 1) / s
        bandwidth = (self.interconnect.effective_bw
                     * self.tp.allreduce_efficiency)
        latency = 2 * model.n_layers * self.interconnect.latency_s
        return ring_volume / bandwidth + latency

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        inner = self._resolved_inner().prefill_comm_s(model, batch_size,
                                                      input_len)
        return self.allreduce_s(model, batch_size * input_len) + inner

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        inner = self._resolved_inner().decode_comm_s(model, batch_size)
        return self.allreduce_s(model, batch_size) + inner

    def tier_bandwidth(self, platform: Platform,
                       footprint_bytes: float) -> Optional[float]:
        return self._resolved_inner().tier_bandwidth(platform,
                                                     footprint_bytes)

    def memory_capacity_bytes(self, platform: Platform) -> Optional[float]:
        return self._resolved_inner().memory_capacity_bytes(platform)

    @property
    def signature(self) -> tuple:
        return ("tp", self.tp, self.interconnect,
                self._resolved_inner().signature)

    @property
    def label(self) -> str:
        return f"{self._resolved_inner().label}-tp{self.tp.degree}"


@dataclasses.dataclass(frozen=True)
class SpecDecodeBackend(ExecutionBackend):
    """Speculative decoding folded into a per-token decode graph.

    One speculation cycle is ``gamma`` draft-model decode steps plus one
    target verification pass (prefill-shaped over ``gamma + 1``
    positions plus the cached-context KV read) and yields
    ``E[tokens] = (1 - alpha^(gamma+1)) / (1 - alpha)`` tokens. The
    decode graph scales both pieces by ``1/E[tokens]`` via
    :func:`scale_op`, so one "decode iteration" prices to exactly the
    effective per-token cost — which is what lets a speculative replica
    run under the unchanged batching/cluster loops. Prefill is the
    plain target prefill.
    """

    draft: ModelConfig
    spec: SpecDecodeConfig = SpecDecodeConfig()
    dtype: DType = DType.BF16

    def verify_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        """Unscaled target verification pass at *kv_len* cached tokens."""
        ops = list(_prefill_ops_cached(model, batch_size,
                                       self.spec.gamma + 1, self.dtype,
                                       False))
        kv_read = sum(op.kv_read_bytes
                      for op in _decode_step_ops_cached(model, batch_size,
                                                        kv_len, self.dtype))
        # Pure-memory op with zero launches: prices to bytes / bandwidth.
        ops.append(Op(name="verify_kv_read", kind=OpKind.ELEMENTWISE,
                      kv_read_bytes=kv_read, kernel_launches=0))
        return tuple(ops)

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        return _prefill_ops_cached(model, batch_size, input_len,
                                   self.dtype, False)

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        e_tokens = self.spec.expected_tokens_per_cycle
        draft_scale = self.spec.gamma / e_tokens
        ops = [dataclasses.replace(scale_op(op, draft_scale),
                                   name=f"draft/{op.name}")
               for op in _decode_step_ops_cached(self.draft, batch_size,
                                                 kv_len, self.dtype)]
        ops += [dataclasses.replace(scale_op(op, 1.0 / e_tokens),
                                    name=f"verify/{op.name}")
                for op in self.verify_ops(model, batch_size, kv_len)]
        return tuple(ops)

    def weight_bytes(self, model: ModelConfig) -> float:
        return (weight_bytes(model, self.dtype)
                + weight_bytes(self.draft, self.dtype))

    def footprint_bytes(self, model: ModelConfig, request) -> float:
        # Target working set plus the resident draft weights (draft KV
        # is second-order: the draft shares context length but is tiny).
        return (inference_footprint_bytes(model, request.max_seq_len,
                                          request.batch_size, self.dtype)
                + weight_bytes(self.draft, self.dtype))

    @property
    def signature(self) -> tuple:
        return ("specdecode", self.draft, self.spec, self.dtype)

    @property
    def label(self) -> str:
        return f"spec-{self.draft.name}-g{self.spec.gamma}"


@dataclasses.dataclass(frozen=True)
class PrefixCacheBackend(ExecutionBackend):
    """Shared-prefix (system-prompt) caching on the prefill path.

    A prompt of ``input_len`` tokens with the leading ``prefix_len``
    cached pays prefill over the unique suffix only, plus one read of
    the cached prefix's K/V per layer (the suffix still attends to it).
    Decode is unchanged. Prompts no longer than the prefix keep one
    uncached token so the pass stays well-formed.
    """

    prefix_len: int = 512
    dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        require_positive(self.prefix_len, "prefix_len")

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        prefix = min(self.prefix_len, input_len - 1)
        unique = input_len - prefix
        ops = list(_prefill_ops_cached(model, batch_size, unique,
                                       self.dtype, False))
        if prefix > 0:
            ops.append(Op(
                name="prefix_kv_read", kind=OpKind.ELEMENTWISE,
                kv_read_bytes=kv_cache_bytes(model, prefix, batch_size,
                                             self.dtype),
                kernel_launches=0))
        return tuple(ops)

    def _build_decode_ops(self, model: ModelConfig, batch_size: int,
                          kv_len: int) -> Tuple[Op, ...]:
        return _decode_step_ops_cached(model, batch_size, kv_len, self.dtype)

    @property
    def signature(self) -> tuple:
        return ("prefix", self.prefix_len, self.dtype)

    @property
    def label(self) -> str:
        return f"prefix{self.prefix_len}"


@dataclasses.dataclass(frozen=True)
class NumaBackend(ExecutionBackend):
    """NUMA placement as a composable backend (Section VI, optimization 1).

    Wraps an *inner* backend (plain dense by default; quantized when
    composed) and reprices its bandwidth-bound ops through
    :class:`~repro.numa.model.NumaModel`: the configured memory x
    clustering mode, optional NUMA-aware allocation, and — when
    *hot_fraction* is set — hot/cold weight placement across the
    HBM/DDR tiers (*hot_fraction* of memory traffic pinned to the fast
    tier, the rest spilling to DDR). Op graphs, dtype, footprint, and
    per-pass communication all delegate to the inner backend, so a
    ``NumaBackend`` replica prices identically to the legacy
    ``EngineConfig(numa=...)`` path bit-for-bit — that parity is what
    makes the engine-config route a thin adapter.

    The placement enters :attr:`signature`, so two placements on the
    same (platform, model) warm disjoint
    :class:`~repro.engine.stepcost.DecodeCostTable` entries.
    """

    numa: NumaConfig = QUAD_FLAT
    numa_aware: bool = False
    hot_fraction: Optional[float] = None
    calibration: NumaCalibration = DEFAULT_NUMA_CALIBRATION
    inner: Optional[ExecutionBackend] = None
    dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        if self.hot_fraction is not None and \
                not 0 <= self.hot_fraction <= 1:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}")

    def _resolved_inner(self) -> ExecutionBackend:
        return self.inner if self.inner is not None \
            else BaselineBackend(self.dtype)

    def _numa_model(self, platform: Platform) -> NumaModel:
        return NumaModel(platform, self.numa, self.calibration,
                         numa_aware=self.numa_aware)

    # -- memory system ------------------------------------------------------

    def tier_bandwidth(self, platform: Platform,
                       footprint_bytes: float) -> float:
        model = self._numa_model(platform)
        if self.hot_fraction is not None:
            return model.hot_cold_bandwidth(self.hot_fraction)
        return model.effective_bandwidth(footprint_bytes)

    def memory_capacity_bytes(self, platform: Platform) -> float:
        return self._numa_model(platform).capacity_bytes

    # -- everything else delegates to the inner backend ---------------------

    @property
    def compute_dtype(self) -> DType:
        return self._resolved_inner().compute_dtype

    @property
    def adjusts(self) -> bool:  # type: ignore[override]
        return self._resolved_inner().adjusts

    def adjust_timing(self, timing):
        return self._resolved_inner().adjust_timing(timing)

    def prefill_ops(self, model: ModelConfig, batch_size: int,
                    input_len: int) -> Tuple[Op, ...]:
        return self._resolved_inner().prefill_ops(model, batch_size,
                                                  input_len)

    def decode_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        return self._resolved_inner().decode_ops(model, batch_size, kv_len)

    def decode_op_source(self):
        # The decode graph *is* the inner graph, so is its source.
        return self._resolved_inner().decode_op_source()

    def weight_bytes(self, model: ModelConfig) -> float:
        return self._resolved_inner().weight_bytes(model)

    def footprint_bytes(self, model: ModelConfig, request) -> float:
        return self._resolved_inner().footprint_bytes(model, request)

    @property
    def capacity_scale(self) -> float:
        return self._resolved_inner().capacity_scale

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        return self._resolved_inner().prefill_comm_s(model, batch_size,
                                                     input_len)

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        return self._resolved_inner().decode_comm_s(model, batch_size)

    @property
    def signature(self) -> tuple:
        return ("numa", self.numa, self.numa_aware, self.hot_fraction,
                self.calibration, self._resolved_inner().signature)

    @property
    def label(self) -> str:
        tag = self.numa.label
        if self.numa_aware:
            tag += "-aware"
        if self.hot_fraction is not None:
            tag += f"-hot{self.hot_fraction:g}"
        return f"{self._resolved_inner().label}-{tag}"


# The hybrid backend's GPU-side executor and priced prefill legs are
# pure functions of frozen inputs; memoized here and dropped by
# clear_backend_op_caches (wired into repro.experiments.clear_caches).

_HYBRID_EXECUTORS: dict = {}


def _hybrid_gpu_executor(gpu: Platform, dtype: DType):
    # Keyed by name: Platform carries a tier list and is unhashable.
    key = (gpu.name, dtype)
    executor = _HYBRID_EXECUTORS.get(key)
    if executor is None:
        from repro.engine.executor import OperatorExecutor

        bandwidth = gpu.peak_memory_bandwidth * gpu.stream_efficiency
        executor = OperatorExecutor(gpu, dtype, bandwidth)
        _HYBRID_EXECUTORS[key] = executor
    return executor


@functools.lru_cache(maxsize=4096)
def _hybrid_prefill_leg(backend: "HybridBackend", model: ModelConfig,
                        batch_size: int, input_len: int) -> float:
    from repro.offload.engine import gpu_prefill_leg
    from repro.offload.policy import hybrid_streamed_weight_bytes
    from repro.offload.transfer import transfer_model_for

    executor = _hybrid_gpu_executor(backend.gpu, backend.dtype)
    transfer = transfer_model_for(backend.gpu, backend.calibration)
    streamed = hybrid_streamed_weight_bytes(
        backend.weight_bytes(model), backend.gpu, backend.calibration)
    time_s, _, _ = gpu_prefill_leg(
        executor, transfer, backend.calibration, model, batch_size,
        input_len, backend.dtype, streamed, kv_to_host=True)
    return time_s


@dataclasses.dataclass(frozen=True, eq=False)
class HybridBackend(ExecutionBackend):
    """CPU–GPU hybrid execution: GPU prefill, CPU decode (Section VI, opt. 2).

    Prefill — compute-bound, where the GPU wins — runs on *gpu*: the
    dense prefill graph priced on a GPU executor, non-resident weights
    streamed over PCIe (the offload policy's residency budget), and the
    freshly produced prompt K/V always handed off to host memory, since
    decode runs on the CPU against host-resident KV. The whole GPU leg
    is charged through :meth:`prefill_comm_s` as comm-as-wall-time
    (the backend's prefill op graph is empty), priced by the same
    :func:`repro.offload.engine.gpu_prefill_leg` the offload engine
    uses — so the transfer model and overlap behaviour match
    ``repro.offload`` by construction.

    Decode — bandwidth-bound, where the CPU's HBM competes — delegates
    entirely to the *inner* backend (plain, quantized, or NUMA-placed),
    so hybrid composes under ``TensorParallelBackend`` and over
    ``QuantizedBackend``/``NumaBackend`` like any other wrapper.
    """

    # calibration is an OffloadCalibration; ``None`` resolves to the
    # default lazily (repro.offload imports this module's executor
    # consumers, so the import cannot be at module scope).
    gpu: Platform
    calibration: Optional["OffloadCalibration"] = None
    inner: Optional[ExecutionBackend] = None
    dtype: DType = DType.BF16

    def __post_init__(self) -> None:
        if not self.gpu.is_gpu:
            raise ValueError(
                f"HybridBackend needs a GPU prefill platform, got "
                f"{self.gpu.name}")
        if self.calibration is None:
            from repro.offload.policy import DEFAULT_OFFLOAD_CALIBRATION

            object.__setattr__(self, "calibration",
                               DEFAULT_OFFLOAD_CALIBRATION)

    def _resolved_inner(self) -> ExecutionBackend:
        return self.inner if self.inner is not None \
            else BaselineBackend(self.dtype)

    # -- prefill: the GPU leg, charged as wall time -------------------------

    def _build_prefill_ops(self, model: ModelConfig, batch_size: int,
                           input_len: int) -> Tuple[Op, ...]:
        return ()

    def prefill_comm_s(self, model: ModelConfig, batch_size: int,
                       input_len: int) -> float:
        return _hybrid_prefill_leg(self, model, batch_size, input_len)

    # -- decode: delegates to the CPU-side inner backend --------------------

    def decode_ops(self, model: ModelConfig, batch_size: int,
                   kv_len: int) -> Tuple[Op, ...]:
        return self._resolved_inner().decode_ops(model, batch_size, kv_len)

    def decode_op_source(self):
        # The decode graph *is* the inner graph, so is its source.
        return self._resolved_inner().decode_op_source()

    def decode_comm_s(self, model: ModelConfig, batch_size: int) -> float:
        return self._resolved_inner().decode_comm_s(model, batch_size)

    @property
    def compute_dtype(self) -> DType:
        return self._resolved_inner().compute_dtype

    @property
    def adjusts(self) -> bool:  # type: ignore[override]
        return self._resolved_inner().adjusts

    def adjust_timing(self, timing):
        return self._resolved_inner().adjust_timing(timing)

    def weight_bytes(self, model: ModelConfig) -> float:
        return self._resolved_inner().weight_bytes(model)

    def footprint_bytes(self, model: ModelConfig, request) -> float:
        # CPU-side working set: the host holds the full weights (source
        # of the PCIe stream), the KV cache, and decode activations.
        return self._resolved_inner().footprint_bytes(model, request)

    @property
    def capacity_scale(self) -> float:
        return self._resolved_inner().capacity_scale

    def tier_bandwidth(self, platform: Platform,
                       footprint_bytes: float) -> Optional[float]:
        return self._resolved_inner().tier_bandwidth(platform,
                                                     footprint_bytes)

    def memory_capacity_bytes(self, platform: Platform) -> Optional[float]:
        return self._resolved_inner().memory_capacity_bytes(platform)

    @property
    def signature(self) -> tuple:
        return ("hybrid", self.gpu.name, self.calibration, self.dtype,
                self._resolved_inner().signature)

    @property
    def label(self) -> str:
        gpu_tag = self.gpu.name.split("-")[0].lower()
        return f"{self._resolved_inner().label}-hyb.{gpu_tag}"

    # Platform carries an (unhashable) memory-tier list, so the
    # dataclass-generated __eq__/__hash__ would fail; identity lives in
    # the signature, which already names the GPU.
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HybridBackend)
                and self.signature == other.signature)

    def __hash__(self) -> int:
        return hash(self.signature)


#: Spec tokens understood by :func:`parse_backend`, for CLI help text.
BACKEND_SPEC_TOKENS = ("bf16", "fp16", "fp32", "int8", "w8", "int4", "w4",
                       "w8a8", "numa:CONFIG[,aware][,hot=F]", "hybrid:GPU",
                       "tpN")

#: Exact-match vocabulary for did-you-mean suggestions: every literal
#: base token plus the wrapper prefixes and representative examples.
_KNOWN_TOKENS = ("bf16", "fp16", "fp32", "int8", "w8", "int4", "w4",
                 "w8a8", "tp2", "tp4", "numa:quad_flat", "numa:snc_flat",
                 "numa:quad_cache", "numa:snc_cache", "hybrid:a100",
                 "hybrid:h100")


def _spec_error(token: str, spec: str, detail: str = "") -> ValueError:
    """Unknown-token error with a did-you-mean suggestion."""
    hint = ""
    matches = difflib.get_close_matches(token, _KNOWN_TOKENS, n=2,
                                        cutoff=0.5)
    if matches:
        hint = f" (did you mean {' or '.join(repr(m) for m in matches)}?)"
    if detail:
        detail = f": {detail}"
    return ValueError(
        f"unknown backend token {token!r} in spec {spec!r}{detail}{hint}; "
        f"valid tokens: {', '.join(BACKEND_SPEC_TOKENS)}")


def _parse_numa_token(token: str, spec: str) -> "NumaBackend":
    """``numa:<config>[,aware][,hot=<fraction>]`` (wrapper, inner set later)."""
    body = token[len("numa:"):]
    parts = [p for p in body.split(",") if p]
    if not parts:
        raise ValueError(
            f"backend token {token!r} in spec {spec!r} names no NUMA "
            f"config; expected numa:<config> with config one of "
            f"quad_flat, quad_cache, snc_flat, snc_cache, hbm_only_quad")
    try:
        numa = get_config(parts[0])
    except KeyError as error:
        raise _spec_error(token, spec, str(error.args[0])) from error
    aware = False
    hot: Optional[float] = None
    for option in parts[1:]:
        if option == "aware":
            aware = True
        elif option.startswith("hot="):
            value = option[len("hot="):]
            try:
                hot = float(value)
            except ValueError:
                raise ValueError(
                    f"malformed option {option!r} in backend token "
                    f"{token!r}: hot= expects a fraction in [0, 1], got "
                    f"{value!r}") from None
            if not 0 <= hot <= 1:
                raise ValueError(
                    f"malformed option {option!r} in backend token "
                    f"{token!r}: hot= expects a fraction in [0, 1]")
        else:
            raise ValueError(
                f"unknown option {option!r} in backend token {token!r} "
                f"(spec {spec!r}); valid options: aware, hot=<fraction>")
    return NumaBackend(numa=numa, numa_aware=aware, hot_fraction=hot)


def _parse_hybrid_token(token: str, spec: str) -> "HybridBackend":
    """``hybrid:<gpu>`` (wrapper; GPU resolved via the platform registry)."""
    from repro.hardware.registry import get_platform

    body = token[len("hybrid:"):]
    parts = [p for p in body.split(",") if p]
    if not parts:
        raise ValueError(
            f"backend token {token!r} in spec {spec!r} names no GPU; "
            f"expected hybrid:<gpu> (e.g. hybrid:a100)")
    if len(parts) > 1:
        raise ValueError(
            f"unknown option {parts[1]!r} in backend token {token!r} "
            f"(spec {spec!r}); hybrid takes only the GPU name")
    try:
        gpu = get_platform(parts[0])
    except KeyError as error:
        raise _spec_error(token, spec, str(error.args[0])) from error
    if not gpu.is_gpu:
        raise ValueError(
            f"backend token {token!r} in spec {spec!r}: {parts[0]!r} is "
            f"a CPU; hybrid needs a GPU prefill platform (a100, h100)")
    return HybridBackend(gpu=gpu)


def parse_backend(spec: str,
                  interconnect: Optional[Interconnect] = None
                  ) -> ExecutionBackend:
    """Parse a CLI backend spec like ``int8-tp2`` or ``hybrid:a100``.

    Tokens (joined with ``-`` or ``+``): a base — ``bf16`` / ``fp16`` /
    ``fp32`` (plain dense at that dtype), ``int8``/``w8`` (weight-only
    INT8), ``int4``/``w4`` (weight-only INT4), ``w8a8`` (full INT8) —
    plus optional wrappers: ``numa:<config>[,aware][,hot=<fraction>]``
    (NUMA placement: paper config labels like ``snc_flat``, NUMA-aware
    allocation, hot/cold HBM-DDR traffic placement),
    ``hybrid:<gpu>`` (GPU prefill + CPU decode, e.g. ``hybrid:a100``),
    and ``tpN`` for tensor parallelism of degree N. Composition order
    is fixed regardless of token order: quantization innermost, then
    NUMA, then hybrid, then TP — e.g. ``int8-numa:snc_flat,aware-tp2``.
    ``tp2`` alone means BF16 + TP2.

    Unknown tokens raise with a did-you-mean suggestion naming the
    valid vocabulary; malformed ``key=value`` options raise naming the
    offending token.
    """
    tokens = [t for t in spec.lower().replace("+", "-").split("-") if t]
    if not tokens:
        raise ValueError("empty backend spec")
    base: Optional[ExecutionBackend] = None
    numa: Optional[NumaBackend] = None
    hybrid: Optional[HybridBackend] = None
    tp_degree: Optional[int] = None
    for token in tokens:
        if token.startswith("tp") and token[2:].isdigit():
            if tp_degree is not None:
                raise ValueError(f"duplicate tp token in {spec!r}")
            tp_degree = int(token[2:])
            continue
        if token.startswith("numa:"):
            if numa is not None:
                raise ValueError(f"duplicate numa token in {spec!r}")
            numa = _parse_numa_token(token, spec)
            continue
        if token.startswith("hybrid:"):
            if hybrid is not None:
                raise ValueError(f"duplicate hybrid token in {spec!r}")
            hybrid = _parse_hybrid_token(token, spec)
            continue
        if base is not None:
            raise ValueError(f"more than one base backend in {spec!r}")
        if token in ("bf16", "fp16", "fp32"):
            base = BaselineBackend(parse_dtype(token))
        elif token in ("int8", "w8"):
            base = QuantizedBackend(
                QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT8))
        elif token in ("int4", "w4"):
            base = QuantizedBackend(
                QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT4))
        elif token == "w8a8":
            base = QuantizedBackend(QuantConfig(scheme=QuantScheme.FULL_INT8))
        else:
            raise _spec_error(token, spec)
    backend: Optional[ExecutionBackend] = base
    if numa is not None:
        backend = dataclasses.replace(numa, inner=backend)
    if hybrid is not None:
        backend = dataclasses.replace(hybrid, inner=backend)
    if backend is None:
        backend = BaselineBackend(DType.BF16)
    if tp_degree is not None:
        return TensorParallelBackend(tp=TPConfig(degree=tp_degree),
                                     interconnect=interconnect or upi_link(),
                                     inner=backend)
    return backend
