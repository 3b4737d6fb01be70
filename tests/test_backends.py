"""Unified ExecutionBackend layer: parity, keying, and composition.

The backend layer promises three things, each pinned here:

1. **cost-table keying** — decode cost tables are keyed by the
   executor's pricing signature (which includes the backend signature),
   so an INT8 fleet warming its tables never perturbs a BF16 fleet's
   numbers, bit for bit;
2. **wrapper parity** — each legacy feature simulator
   (:class:`QuantizedInferenceSimulator`,
   :class:`TensorParallelSimulator`, :class:`SpeculativeDecoder`,
   :class:`PrefixCacheModel`) prices identically to its backend pushed
   through the generic :class:`InferenceSimulator` /
   :class:`BatchingSimulator` paths (bit-exact against the exact loop,
   ≤1e-9 against the analytical fast path);
3. **cluster composition** — event-horizon fast-forward stays exact
   (integers bit-equal, timings ≤1e-9) for quantized, tensor-parallel,
   and *mixed* fleets, where each replica prices through its own
   backend-keyed table.
"""

import math

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    JoinShortestQueueRouter,
    ReplicaSpec,
    RoundRobinRouter,
)
from repro.engine.backend import (
    BaselineBackend,
    _cached_decode_ops,
    PrefixCacheBackend,
    QuantizedBackend,
    SpecDecodeBackend,
    TensorParallelBackend,
    TPConfig,
    parse_backend,
)
from repro.engine.executor import OperatorExecutor
from repro.engine.inference import InferenceSimulator
from repro.engine.request import InferenceRequest
from repro.engine.stepcost import decode_cost_table
from repro.experiments._sweeps import clear_caches
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.registry import get_model
from repro.parallel.tensor_parallel import TensorParallelSimulator
from repro.quant.engine import QuantizedInferenceSimulator
from repro.quant.weightonly import QuantConfig, QuantScheme
from repro.serving.arrivals import poisson_arrivals
from repro.serving.prefix_cache import PrefixCacheModel
from repro.serving.scheduler import BatchingSimulator
from repro.specdecode.model import SpecDecodeConfig, SpeculativeDecoder
from repro.workloads.generator import WorkloadSpec

SPR = get_platform("spr")
ICL = get_platform("icl")
LLAMA = get_model("llama2-7b")
OPT = get_model("opt-1.3b")

REL = 1e-9


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def decode_heavy_spec():
    return WorkloadSpec(name="agentic", input_len_range=(16, 64),
                        output_len_range=(96, 192), batch_size=1,
                        priority_metric="tpot_s")


# -- cost-table keying ------------------------------------------------------


class TestCostTableKeying:
    def _executor(self, backend):
        sim = InferenceSimulator(SPR, backend=backend)
        return sim._executor(OPT, InferenceRequest(batch_size=2))

    def test_signatures_distinguish_backends(self):
        bf16 = self._executor(BaselineBackend())
        int8 = self._executor(QuantizedBackend())
        assert bf16.pricing_signature != int8.pricing_signature

    def test_distinct_tables_per_backend(self):
        clear_caches()
        bf16 = decode_cost_table(self._executor(BaselineBackend()), OPT)
        int8 = decode_cost_table(self._executor(QuantizedBackend()), OPT)
        assert bf16 is not int8
        # INT8 halves the decode weight stream; identical costs would
        # mean both backends landed on one table.
        assert bf16.range_cost(2, 1, 65)[0] > int8.range_cost(2, 1, 65)[0]

    def test_warming_int8_does_not_perturb_bf16(self):
        clear_caches()
        bf16_executor = self._executor(BaselineBackend())
        table = decode_cost_table(bf16_executor, OPT)
        probes = [(1, 128), (2, 64), (4, 200)]
        before = [table.step_time(*p) for p in probes]
        before_range = table.range_cost(2, 1, 129)
        before_prefill = table.prefill_time(2, 128)

        int8_executor = self._executor(QuantizedBackend())
        int8_table = decode_cost_table(int8_executor, OPT)
        for probe in probes:
            int8_table.step_time(*probe)
        int8_table.range_cost(2, 1, 129)
        int8_table.prefill_time(2, 128)

        again = decode_cost_table(bf16_executor, OPT)
        assert again is table
        assert [table.step_time(*p) for p in probes] == before
        assert table.range_cost(2, 1, 129) == before_range
        assert table.prefill_time(2, 128) == before_prefill

    def test_clear_caches_resets_registry(self):
        executor = self._executor(BaselineBackend())
        table = decode_cost_table(executor, OPT)
        clear_caches()
        assert decode_cost_table(executor, OPT) is not table

    def test_equal_backends_share_one_table(self):
        clear_caches()
        a = decode_cost_table(self._executor(QuantizedBackend()), OPT)
        b = decode_cost_table(self._executor(QuantizedBackend()), OPT)
        assert a is b


# -- backend spec parsing ---------------------------------------------------


class TestParseBackend:
    def test_bf16_is_baseline(self):
        backend = parse_backend("bf16")
        assert isinstance(backend, BaselineBackend)
        assert backend.dtype is DType.BF16
        assert backend.label == "bf16"

    def test_int8_is_weight_only_quant(self):
        backend = parse_backend("int8")
        assert isinstance(backend, QuantizedBackend)
        assert backend.quant.scheme is QuantScheme.WEIGHT_ONLY_INT8
        assert backend.label == "int8"

    def test_tp_wraps_base(self):
        backend = parse_backend("int8-tp2")
        assert isinstance(backend, TensorParallelBackend)
        assert backend.tp.degree == 2
        assert isinstance(backend._resolved_inner(), QuantizedBackend)
        assert backend.label == "int8-tp2"

    def test_plus_separator_and_order_both_accepted(self):
        assert parse_backend("tp2+int8").signature == \
            parse_backend("int8-tp2").signature

    def test_bare_tp_defaults_to_bf16_inner(self):
        backend = parse_backend("tp2")
        assert backend.label == "bf16-tp2"

    @pytest.mark.parametrize("bad", ["", "foo", "int8-int4", "tp2-tp4",
                                     "tp0", "bf16-avx"])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_backend(bad)

    def test_parsed_specs_are_priceable(self):
        request = InferenceRequest(batch_size=1, input_len=64, output_len=8)
        for spec in ("bf16", "fp32", "int8", "int4", "w8a8", "tp2",
                     "int4-tp2"):
            result = InferenceSimulator(
                SPR, backend=parse_backend(spec)).run(OPT, request)
            assert result.e2e_s > 0


# -- op-wise series pricing for wrapped backends ----------------------------

#: TP specs whose attention shard is a staircase in kv_len, alone and
#: under every wrapper the grammar composes.
TP_SPECS = ("tp2", "tp4", "int8-tp2", "numa:snc_flat-tp2",
            "int8-numa:quad_cache-hybrid:a100-tp2")
#: Odd-length ranges together covering KV 1..611.
SERIES_RANGES = ((1, 612), (5, 18), (37, 300), (600, 603))


def _llama_executor(spec):
    sim = InferenceSimulator(SPR, backend=parse_backend(spec))
    return sim._executor(LLAMA, InferenceRequest(batch_size=1))


class TestOpWiseSeries:
    """TP series rebuild the varying op from the inner graph, bit-exactly."""

    @pytest.mark.parametrize("spec", TP_SPECS)
    def test_series_match_full_graph_rebuilds(self, spec, monkeypatch):
        executor = _llama_executor(spec)
        cases = [(batch, lo, hi) for batch in range(1, 9)
                 for lo, hi in SERIES_RANGES]
        fast = [(executor.time_decode_series(LLAMA, *case),
                 executor.time_decode_range(LLAMA, *case))
                for case in cases]
        # Without a decode-op source every interior op of a non-affine
        # op comes from building the whole step graph at its kv.
        monkeypatch.setattr(TensorParallelBackend, "decode_op_source",
                            lambda self: None)
        rebuilt = [(executor.time_decode_series(LLAMA, *case),
                    executor.time_decode_range(LLAMA, *case))
                   for case in cases]
        assert fast == rebuilt

    @pytest.mark.parametrize("spec", ("int8-tp2", "tp4"))
    def test_series_builds_constant_graphs(self, spec):
        executor = _llama_executor(spec)
        builds = []
        for kv_end in (300, 1201, 2401):
            clear_caches()
            before = _cached_decode_ops.cache_info().misses
            executor.time_decode_series(LLAMA, 4, 1, kv_end)
            builds.append(_cached_decode_ops.cache_info().misses - before)
        # Endpoints and midpoint of the TP graph and of its source.
        assert builds[0] == builds[1] == builds[2] <= 6

    def test_source_maps_graph_op_for_op(self):
        backend = parse_backend("int8-numa:quad_cache-hybrid:a100-tp2")
        source, rewrite = backend.decode_op_source()
        for kv in (1, 2, 3, 129, 130):
            assert backend.decode_ops(LLAMA, 3, kv) == tuple(
                rewrite(op) for op in source.decode_ops(LLAMA, 3, kv))
        assert BaselineBackend().decode_op_source() is None


# -- legacy wrapper vs backend-through-generic-paths ------------------------


class TestWrapperParity:
    REQUEST = InferenceRequest(batch_size=2, input_len=128, output_len=64)

    def assert_results_agree(self, legacy, generic, exact_loop=True):
        compare = (lambda a, b: a == b) if exact_loop else close
        assert compare(legacy.prefill.time_s, generic.prefill.time_s)
        assert compare(legacy.decode.time_s, generic.decode.time_s)
        assert compare(legacy.e2e_s, generic.e2e_s)
        assert compare(legacy.ttft_s, generic.ttft_s)
        assert compare(legacy.tpot_s, generic.tpot_s)

    @pytest.mark.parametrize("quant", [
        QuantConfig(),
        QuantConfig(scheme=QuantScheme.WEIGHT_ONLY_INT4),
        QuantConfig(scheme=QuantScheme.FULL_INT8),
    ])
    def test_quant_wrapper_matches_backend(self, quant):
        legacy = QuantizedInferenceSimulator(SPR, quant).run(
            LLAMA, self.REQUEST)
        backend = QuantizedBackend(quant=quant, dtype=self.REQUEST.dtype)
        sim = InferenceSimulator(SPR, backend=backend)
        self.assert_results_agree(
            legacy, sim.run(LLAMA, self.REQUEST, exact=True))
        self.assert_results_agree(
            legacy, sim.run(LLAMA, self.REQUEST, exact=False),
            exact_loop=False)

    def test_tp_wrapper_matches_backend(self):
        legacy = TensorParallelSimulator(SPR, TPConfig(degree=2)).run(
            LLAMA, self.REQUEST)
        backend = TensorParallelBackend(tp=TPConfig(degree=2),
                                        dtype=self.REQUEST.dtype)
        sim = InferenceSimulator(SPR, backend=backend)
        self.assert_results_agree(
            legacy, sim.run(LLAMA, self.REQUEST, exact=True))
        self.assert_results_agree(
            legacy, sim.run(LLAMA, self.REQUEST, exact=False),
            exact_loop=False)

    def test_specdecode_folded_graph_matches_estimate(self):
        # ICL: effective bandwidth is footprint-independent, so the
        # wrapper's separate draft/target executors and the folded
        # graph's single executor price against the same bandwidth.
        config = SpecDecodeConfig(gamma=4, acceptance_rate=0.8)
        decoder = SpeculativeDecoder(ICL, LLAMA, OPT, config)
        estimate = decoder.estimate(self.REQUEST)

        backend = decoder.backend(self.REQUEST)
        sim = InferenceSimulator(ICL, backend=backend)
        executor = sim._executor(LLAMA, self.REQUEST)
        kv_len = self.REQUEST.input_len + self.REQUEST.decode_steps // 2
        folded = sum(t.time_s for t in executor.time_ops(
            backend.decode_ops(LLAMA, self.REQUEST.batch_size, kv_len)))
        assert close(folded, estimate.effective_tpot_s)

    def test_prefix_wrapper_matches_backend(self):
        prefix_len, unique_len = 512, 64
        estimate = PrefixCacheModel(SPR).estimate(LLAMA, prefix_len,
                                                  unique_len)
        request = InferenceRequest(batch_size=1,
                                   input_len=prefix_len + unique_len)
        backend = PrefixCacheBackend(prefix_len=prefix_len)
        warm = InferenceSimulator(SPR, backend=backend).run(LLAMA, request)
        cold = InferenceSimulator(SPR).run(LLAMA, request)
        assert warm.ttft_s == estimate.warm_ttft_s
        assert cold.ttft_s == estimate.cold_ttft_s


class TestSchedulerParity:
    """Backend-through-BatchingSimulator vs the legacy wrapper executors.

    On ICL effective bandwidth is footprint-independent, so the
    scheduler's sizing executor and the wrapper's request executor are
    interchangeable and the comparison isolates the op-graph path.
    """

    def test_quant_scheduler_costs_match_wrapper_executor(self):
        quant = QuantConfig()
        scheduler = BatchingSimulator(
            ICL, OPT, max_batch=4,
            backend=QuantizedBackend(quant=quant))
        wrapper = QuantizedInferenceSimulator(ICL, quant)
        request = InferenceRequest(batch_size=4, input_len=128,
                                   output_len=64)
        executor = wrapper._executor(OPT, request)
        backend = wrapper.backend(request)
        for batch, kv in ((1, 1), (2, 64), (4, 300)):
            want = sum(t.time_s for t in executor.time_ops(
                backend.decode_ops(OPT, batch, kv)))
            assert close(scheduler._decode_iteration_time(batch, kv), want)
        want_prefill = sum(t.time_s for t in executor.time_ops(
            backend.prefill_ops(OPT, 2, 128)))
        assert close(scheduler._prefill_time(2, 128), want_prefill)

    def test_tp_scheduler_prefill_matches_wrapper_ttft(self):
        tp = TPConfig(degree=2)
        scheduler = BatchingSimulator(
            ICL, OPT, max_batch=4, backend=TensorParallelBackend(tp=tp))
        request = InferenceRequest(batch_size=4, input_len=128,
                                   output_len=8)
        legacy = TensorParallelSimulator(ICL, tp).run(OPT, request)
        assert close(scheduler._prefill_time(4, 128), legacy.ttft_s)


# -- cluster composition ----------------------------------------------------


def assert_cluster_reports_agree(exact, fast):
    """Integer accounting bit-equal, timings ≤1e-9 relative."""
    assert exact.generated_tokens == fast.generated_tokens
    assert exact.wasted_tokens == fast.wasted_tokens
    assert close(exact.makespan_s, fast.makespan_s)
    assert close(exact.throughput, fast.throughput)
    assert close(exact.mean_ttft_s, fast.mean_ttft_s)
    assert len(exact.node_stats) == len(fast.node_stats)
    for e, f in zip(exact.node_stats, fast.node_stats):
        assert (e.name, e.platform, e.iterations, e.completed,
                e.generated_tokens, e.peak_queue) == \
               (f.name, f.platform, f.iterations, f.completed,
                f.generated_tokens, f.peak_queue)
        assert close(e.busy_s, f.busy_s)
    by_id = lambda report: sorted(report.completed,
                                  key=lambda r: r.request_id)
    for e, f in zip(by_id(exact), by_id(fast)):
        assert e.request_id == f.request_id
        assert close(e.start_s, f.start_s)
        assert close(e.first_token_s, f.first_token_s)
        assert close(e.finish_s, f.finish_s)


def run_both_modes(config, arrivals, make_router):
    exact = ClusterSimulator(config.build_fleet(), make_router(),
                             exact=True).run(list(arrivals))
    fast = ClusterSimulator(config.build_fleet(), make_router(),
                            exact=False).run(list(arrivals))
    return exact, fast


class TestClusterBackendParity:
    def test_quantized_tp_fleet_fast_forward_is_exact(self):
        config = ClusterConfig([
            ReplicaSpec(SPR, OPT, count=3, max_batch=4,
                        backend=parse_backend("int8-tp2")),
        ])
        arrivals = poisson_arrivals(2.0, 32, decode_heavy_spec(), seed=11)
        exact, fast = run_both_modes(config, arrivals, RoundRobinRouter)
        assert_cluster_reports_agree(exact, fast)

    def test_mixed_fleet_fast_forward_is_exact(self):
        config = ClusterConfig([
            ReplicaSpec(SPR, OPT, count=2, max_batch=4),
            ReplicaSpec(SPR, OPT, count=2, max_batch=4,
                        backend=parse_backend("int8-tp2")),
        ])
        arrivals = poisson_arrivals(3.0, 40, decode_heavy_spec(), seed=5)
        exact, fast = run_both_modes(config, arrivals,
                                     JoinShortestQueueRouter)
        assert_cluster_reports_agree(exact, fast)

    def test_mixed_fleet_routes_more_work_to_faster_backends(self):
        config = ClusterConfig([
            ReplicaSpec(SPR, LLAMA, count=2),
            ReplicaSpec(SPR, LLAMA, count=2,
                        backend=parse_backend("int8-tp2")),
        ])
        arrivals = poisson_arrivals(4.0, 48, decode_heavy_spec(), seed=3)
        report = ClusterSimulator(config.build_fleet(),
                                  JoinShortestQueueRouter()).run(arrivals)
        plain = sum(s.completed for s in report.node_stats
                    if "int8" not in s.name)
        quantized = sum(s.completed for s in report.node_stats
                        if "int8" in s.name)
        assert quantized > plain


class TestClusterConfig:
    def test_fleet_names_are_unique_and_labeled(self):
        config = ClusterConfig([
            ReplicaSpec(SPR, OPT, count=2),
            ReplicaSpec(SPR, OPT, count=2,
                        backend=parse_backend("int8-tp2")),
        ])
        names = [node.name for node in config.build_fleet()]
        assert names == ["spr-0", "spr-1",
                         "spr-int8-tp2-2", "spr-int8-tp2-3"]

    def test_size_counts_all_replicas(self):
        config = ClusterConfig([ReplicaSpec(SPR, OPT, count=2),
                                ReplicaSpec(ICL, OPT, count=3)])
        assert config.size == 5

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig([])

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            ReplicaSpec(SPR, OPT, count=0)
