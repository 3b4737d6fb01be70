"""Equivalence of the analytical decode pricing and the per-step loop.

The fast path (:meth:`OperatorExecutor.time_decode_range`) must agree with
the exact per-step decode loop to within 1e-9 relative error on every
reported metric — TTFT/TPOT/E2E, phase totals, and the per-op breakdown —
across models, batch sizes, dtypes, platforms, and request shapes,
including a platform where the best engine flips mid-decode.
"""

import dataclasses

import pytest

from repro.engine.backend import parse_backend
from repro.engine.executor import OperatorExecutor
from repro.engine.inference import InferenceSimulator, MemoryCapacityError
from repro.engine.request import InferenceRequest
from repro.hardware.compute import ComputeEngine, EngineKind, TileShape
from repro.hardware.datatypes import DType
from repro.hardware.registry import get_platform
from repro.models.opgraph import decode_step_ops
from repro.models.registry import evaluated_models, get_model

TOL = 1e-9


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(got), abs(want), 1e-300)


def _assert_equivalent(sim, model, request):
    """Check fast == exact for one cell; returns False on capacity skip."""
    try:
        exact = sim.run(model, request, exact=True)
    except MemoryCapacityError:
        return False
    fast = sim.run(model, request, exact=False)

    for key, want in exact.summary().items():
        assert _rel(fast.summary()[key], want) <= TOL, key

    for phase_exact, phase_fast in ((exact.prefill, fast.prefill),
                                    (exact.decode, fast.decode)):
        for field in ("time_s", "flops", "weight_bytes", "activation_bytes",
                      "kv_bytes", "compute_busy_s", "memory_busy_s"):
            assert _rel(getattr(phase_fast, field),
                        getattr(phase_exact, field)) <= TOL, field
        assert set(phase_fast.op_times) == set(phase_exact.op_times)
        for name, want in phase_exact.op_times.items():
            assert _rel(phase_fast.op_times[name], want) <= TOL, name
    return True


@pytest.mark.parametrize("platform_name", ["icl", "spr", "a100", "h100"])
@pytest.mark.parametrize("batch_size", [1, 4, 32])
def test_fastpath_matches_step_loop_across_models(platform_name, batch_size):
    sim = InferenceSimulator(get_platform(platform_name))
    checked = [model.name for model in evaluated_models()
               if _assert_equivalent(sim, model,
                                     InferenceRequest(batch_size=batch_size))]
    assert checked, "every model hit the capacity skip"


@pytest.mark.parametrize("dtype", [DType.BF16, DType.FP32, DType.INT8])
@pytest.mark.parametrize("platform_name", ["icl", "spr"])
def test_fastpath_matches_step_loop_across_dtypes(platform_name, dtype):
    sim = InferenceSimulator(get_platform(platform_name))
    for model in (get_model("opt-1.3b"), get_model("llama2-7b")):
        assert _assert_equivalent(
            sim, model,
            InferenceRequest(batch_size=4, input_len=96, output_len=48,
                             dtype=dtype))


@pytest.mark.parametrize("input_len,output_len", [
    (1, 2),       # minimal kv range
    (17, 5),      # dense-summation path (few steps)
    (128, 1),     # no decode steps at all
    (128, 300),   # long decode crossing many tile boundaries
    (333, 77),    # tile-misaligned start
])
def test_fastpath_matches_step_loop_shapes(input_len, output_len):
    sim = InferenceSimulator(get_platform("spr"))
    model = get_model("opt-6.7b")
    assert _assert_equivalent(
        sim, model,
        InferenceRequest(batch_size=2, input_len=input_len,
                         output_len=output_len))


def _flip_platform():
    """A platform whose best engine flips mid-decode.

    On the paper's real platforms the decode-phase GEMMs never change
    winner (attention stays memory-bound), so this exercises the
    best-engine crossover breakpoints with a synthetic engine pair: a
    low-overhead vector unit that wins while the op is memory-bound, and
    a high-peak, high-overhead matrix engine that wins once the growing
    kv_len makes the first engine compute-bound.
    """
    cheap = ComputeEngine(name="cheap", kind=EngineKind.VECTOR,
                          peak_flops={DType.BF16: 2e12},
                          launch_overhead_s=1e-7)
    beefy = ComputeEngine(name="beefy", kind=EngineKind.MATRIX,
                          peak_flops={DType.BF16: 2e14},
                          tile=TileShape(m=16, n=16, k=32),
                          launch_overhead_s=2e-5)
    return dataclasses.replace(get_platform("spr"), name="synthetic-flip",
                               engines=[cheap, beefy])


def test_best_engine_flips_mid_decode_and_fastpath_agrees():
    model = get_model("opt-1.3b")
    executor = OperatorExecutor(_flip_platform(), DType.BF16, bandwidth=5e11)
    kv_start, kv_end = 760, 1060

    # Precondition: the winning engine really does flip inside the range
    # (otherwise this test silently stops covering the crossover logic).
    winners = set()
    for kv in range(kv_start, kv_end):
        for op in decode_step_ops(model, 1, kv, DType.BF16):
            if op.name == "attn_qk":
                winners.add(executor.time_op(op).engine_name)
    assert winners == {"cheap", "beefy"}

    rng = executor.time_decode_range(model, 1, kv_start, kv_end)
    series = executor.time_decode_series(model, 1, kv_start, kv_end)

    time_s = compute_s = memory_s = 0.0
    op_times = {}
    for step, kv in enumerate(range(kv_start, kv_end)):
        step_legs = [0.0, 0.0, 0.0]
        for timing in executor.time_ops(
                list(decode_step_ops(model, 1, kv, DType.BF16))):
            step_legs[0] += timing.time_s
            step_legs[1] += timing.compute_s
            step_legs[2] += timing.memory_s
            op_times[timing.op.name] = (op_times.get(timing.op.name, 0.0)
                                        + timing.time_s)
        time_s += step_legs[0]
        compute_s += step_legs[1]
        memory_s += step_legs[2]
        for got, want in zip((leg[step] for leg in series), step_legs):
            assert _rel(got, want) <= TOL, kv

    assert _rel(rng.time_s, time_s) <= TOL
    assert _rel(rng.compute_s, compute_s) <= TOL
    assert _rel(rng.memory_s, memory_s) <= TOL
    assert set(rng.op_times) == set(op_times)
    for name, want in op_times.items():
        assert _rel(rng.op_times[name], want) <= TOL, name


def test_time_decode_range_empty_range():
    executor = OperatorExecutor(get_platform("spr"), DType.BF16,
                                bandwidth=2e11)
    rng = executor.time_decode_range(get_model("opt-1.3b"), 1, 128, 128)
    assert rng.steps == 0
    assert rng.time_s == 0.0
    assert rng.op_times == {}
    assert executor.time_decode_series(get_model("opt-1.3b"), 1,
                                       128, 128) == ([], [], [])


def test_tensor_parallel_staircase_matches_step_loop():
    # Under tp2 the attention score GEMM scores kv // 2 keys, a staircase
    # in kv_len that is priced densely, one step at a time.
    model = get_model("llama2-7b")
    sim = InferenceSimulator(get_platform("spr"),
                             backend=parse_backend("tp2"))
    executor = sim._executor(model, InferenceRequest(batch_size=2))
    kv_start, kv_end = 117, 190
    rng = executor.time_decode_range(model, 2, kv_start, kv_end)
    series = executor.time_decode_series(model, 2, kv_start, kv_end)

    comm = executor.decode_comm_s(model, 2)
    assert comm > 0.0
    time_s = compute_s = memory_s = 0.0
    keys = []
    for step, kv in enumerate(range(kv_start, kv_end)):
        ops = executor.backend.decode_ops(model, 2, kv)
        keys.append(next(op.n for op in ops if op.name == "attn_qk"))
        timings = executor.time_ops(list(ops))
        step_legs = (sum(t.time_s for t in timings) + comm,
                     sum(t.compute_s for t in timings),
                     sum(t.memory_s for t in timings))
        time_s += step_legs[0]
        compute_s += step_legs[1]
        memory_s += step_legs[2]
        for got, want in zip((leg[step] for leg in series), step_legs):
            assert _rel(got, want) <= TOL, kv
    # Precondition: the scored key count really is a staircase here.
    assert {b - a for a, b in zip(keys, keys[1:])} == {0, 1}

    assert _rel(rng.time_s, time_s) <= TOL
    assert _rel(rng.compute_s, compute_s) <= TOL
    assert _rel(rng.memory_s, memory_s) <= TOL
