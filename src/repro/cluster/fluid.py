"""Fluid/mean-field steady-state solver for instant cluster what-ifs.

The last rung of the raw-speed ladder: per-step simulation, closed-form
fast-forward, sharded execution — and now no event loop at all. Given a
:class:`~repro.cluster.config.ClusterConfig`, an arrival rate, and a
request-shape (or class) mix, :func:`solve` computes the steady state of
the fleet analytically: per-replica batch-occupancy distribution,
throughput, queueing delay, TTFT/TPOT percentiles, SLO attainment,
goodput, and $/Mtok — in microseconds once the cost tables are warm,
versus seconds-to-minutes for the discrete-event simulator.

**The model.** Each tier — a group of interchangeable replicas with one
(model, platform, backend) triple — is a pooled birth–death chain in the
total number of in-system requests ``n``:

* A replica serving a batch of ``b`` sequences advances all of them one
  token per fused iteration, so ``b`` requests complete every
  ``b * Tp + D(b)`` seconds, where ``Tp`` is the mixture-mean prefill
  (prefills run exclusively) and ``D(b)`` is the mixture-mean
  whole-batch decode demand of one request at occupancy ``b`` — the
  exact expectation of the piecewise-affine prefix curves in
  :class:`~repro.engine.stepcost.DecodeCostTable` over the request-shape
  distribution (:meth:`~repro.engine.stepcost.DecodeCostTable.
  expected_decode_time`). The per-request spacing at occupancy ``b`` is
  therefore ``S(b) = Tp + D(b) / b``, and a tier of ``k`` replicas
  completes requests at rate ``min(n, k) / S(n / min(n, k))`` —
  batching efficiency enters through ``S`` falling with occupancy.
* Above the full-batch state the queue is geometric with ratio
  ``rho = rate * S(B) / k`` — the tier's load; ``k / S(B)`` is its
  capacity.  Queue waits get an M/G/k-style correction: the M/M mean
  wait is scaled by ``(1 + cv^2) / 2`` with ``cv^2`` the service-demand
  variability of the shape mixture, and the conditional wait keeps an
  exponential tail (so TTFT percentiles are closed-form).
* TPOT is the token-weighted mean inter-token gap over the occupancy
  distribution, inflated by the prefill-stall share ``1 / (1 - rate *
  Tp / k)`` — decode gaps stretch when admissions interpose exclusive
  prefills.

**Router composition.** With a class mix the solver reproduces the
:class:`~repro.cluster.tiering.TieredRouter` flow logic as a damped
fixed point over class→tier admission shares: each class starts at its
home tier (cheapest eligible tier whose unloaded service clears the
class bar — the same rule, priced off the same tables) and the share
that would see its TTFT bar broken spills upward, until flows converge.
Without classes, flows split in proportion to tier capacity — exact for
homogeneous fleets under round-robin/JSQ, and the resource-pooled chain
approximates join-shortest-queue balancing within a tier.

**Validity envelope** (see ``docs/fluid.md`` and the recorded error
envelope in ``BENCH_cluster.json``): in the stable regime (``rho <=
0.85``) throughput, goodput, and $/Mtok track the exact simulator to
~2%; near saturation (``0.85 < rho < 1``) queue-length statistics grow
sensitive to arrival details and errors widen; overloaded tiers
(``rho >= 1``) are *flagged* — throughput pins to capacity, waits are
infinite, attainment is zero — rather than silently extrapolated. TTFT
tail percentiles inherit the M/G/k approximation and are indicative,
not bit-accurate; use the simulator to confirm a winner
(:func:`repro.optim.advisor.recommend_fleet` automates that).
"""

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.cost import price_rate
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import DEFAULT_AMORTIZATION_YEARS, \
    _SECONDS_PER_YEAR
from repro.cluster.node import ReplicaNode
from repro.cluster.tiering import Tier, tier_label
from repro.serving.arrivals import _spec_ranges
from repro.serving.slo import SLO
from repro.workloads.classes import REQUEST_CLASSES, RequestClass

#: Load-regime labels, in increasing order of distress.
REGIME_STABLE = "stable"
REGIME_NEAR_SATURATION = "near-saturation"
REGIME_OVERLOADED = "overloaded"

#: Documented edge of the validated envelope: below this load the
#: recorded error bounds apply; above it, expect drift.
STABLE_RHO = 0.85

_FIXED_POINT_DAMPING = 0.5
_FIXED_POINT_TOL = 1e-4
_FIXED_POINT_MAX_ITERS = 200
#: Prefill-stall inflation is clamped so a prefill-dominated overload
#: degrades gracefully instead of dividing by ~zero.
_MAX_PREFILL_SHARE = 0.95


def _regime(rho: float) -> str:
    if rho >= 1.0:
        return REGIME_OVERLOADED
    if rho > STABLE_RHO:
        return REGIME_NEAR_SATURATION
    return REGIME_STABLE


# -- workload resolution ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Flow:
    """One resolved request class: shape ranges, share, and its bar."""

    name: str
    share: float
    input_range: Tuple[int, int]
    output_range: Tuple[int, int]
    slo: SLO
    min_model_params: float

    @property
    def mean_input(self) -> float:
        lo, hi = self.input_range
        return (lo + hi) / 2.0

    @property
    def mean_output(self) -> float:
        lo, hi = self.output_range
        return (lo + hi) / 2.0

    @property
    def mean_steps(self) -> float:
        """Expected decode iterations (the first token comes from prefill)."""
        return max(0.0, self.mean_output - 1.0)


def _resolve_flows(mix, spec, slo,
                   classes: Optional[Mapping[str, RequestClass]]
                   ) -> List[_Flow]:
    if mix is None:
        input_range, output_range = _spec_ranges(spec)
        return [_Flow(name="all", share=1.0,
                      input_range=tuple(input_range),
                      output_range=tuple(output_range),
                      slo=slo if slo is not None else SLO(),
                      min_model_params=0.0)]
    table = dict(classes if classes is not None else REQUEST_CLASSES)
    total = sum(share for _, share in mix)
    if total <= 0:
        raise ValueError("class mix shares must sum to a positive value")
    flows = []
    for name, share in mix:
        if share <= 0:
            continue
        rc = table[name]
        flows.append(_Flow(name=name, share=share / total,
                           input_range=tuple(rc.input_len_range),
                           output_range=tuple(rc.output_len_range),
                           slo=rc.slo,
                           min_model_params=rc.min_model_params))
    if not flows:
        raise ValueError("class mix resolved to no positive shares")
    return flows


# -- stations --------------------------------------------------------------


class _Station:
    """One tier of interchangeable replicas, with memoized demands.

    *node* is one probe replica of the tier; *prices* hold every
    replica's listing price, in fleet order.
    """

    def __init__(self, node: ReplicaNode, prices: Sequence[float]):
        self.tier: Tier = node.tier
        self.count = len(prices)
        self.table = node.cost_table
        self.max_batch = node.max_batch
        self.param_count = node.model.param_count()
        self.price_usd = sum(prices)

    def prefill_s(self, flow: _Flow) -> float:
        # Includes backend comm time (TP allreduce, hybrid GPU leg):
        # DecodeCostTable.prefill_time folds prefill_comm_s in, so
        # hybrid stations price their PCIe/GPU prefill here for free.
        return self.table.expected_prefill_time(flow.input_range)

    def decode_s(self, flow: _Flow, batch: int) -> float:
        return self.table.expected_decode_time(batch, flow.input_range,
                                               flow.output_range)

    def per_token_s(self, flow: _Flow) -> float:
        """Unloaded per-token decode — the router's home-tier probe.

        Mirrors :meth:`~repro.cluster.node.ReplicaNode.decode_cost_s`
        (single sequence, mid-KV iteration cost) at the class's mean
        shape, so fluid home tiers agree with the router's.
        """
        mean_out = int(round(flow.mean_output))
        if mean_out <= 1:
            return 0.0
        mid_kv = int(round(flow.mean_input)) + mean_out // 2
        return self.table.step_time(1, max(1, mid_kv))


def _group_stations(config: ClusterConfig) -> List[_Station]:
    """One station per tier, in order of the tier's first replica.

    Builds one probe replica per :class:`ReplicaSpec` (which runs its
    memory-fit check) rather than the whole fleet: replicas of one spec
    share tier, cost table and batch limit, so only the first replica
    of each tier is read, plus every replica's price.
    """
    probes: Dict[Tier, ReplicaNode] = {}
    prices: Dict[Tier, List[float]] = {}
    for spec in config.replicas:
        node = ReplicaNode(spec.base_name, spec.platform, spec.model,
                           spec.max_batch, spec.config, spec.backend)
        probes.setdefault(node.tier, node)
        price = price_rate(spec.platform.name, spec.price_usd)
        prices.setdefault(node.tier, []).extend([price] * spec.count)
    return [_Station(probes[tier], tier_prices)
            for tier, tier_prices in prices.items()]


# -- the per-station chain -------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ClassAtStation:
    """Per-(class, station) steady-state latency components."""

    flow: _Flow
    rate_per_s: float
    t0_s: float          # deterministic TTFT floor: boundary wait + prefill
    p_wait: float
    theta: float         # exponential wait-tail rate (inf when no wait)
    mean_ttft_s: float
    tpot_s: float
    attainment: float
    overloaded: bool

    def ttft_cdf(self, t: float) -> float:
        if self.overloaded:
            return 0.0
        if t < self.t0_s:
            return 0.0
        if not math.isfinite(self.theta):
            return 1.0
        return 1.0 - self.p_wait * math.exp(-self.theta * (t - self.t0_s))


class _StationSolution:
    """Solved chain for one station under a given flow assignment."""

    def __init__(self, station: _Station, flows: List[Tuple[_Flow, float]]):
        self.station = station
        self.flows = [(flow, rate) for flow, rate in flows if rate > 0.0]
        self.rate_per_s = sum(rate for _, rate in self.flows)
        self.capacity_req_per_s = 0.0
        self.classes: List[_ClassAtStation] = []
        if not self.flows:
            self._solve_idle()
        else:
            self._solve()

    # An idle station: keep capacity so flow redistribution can use it.
    def _solve_idle(self) -> None:
        station = self.station
        big_b = station.max_batch
        # Demand at full batch for the *default* shape envelope is not
        # defined without a flow; report capacity as 0-rate placeholder
        # and a fully-idle occupancy.
        self.rho = 0.0
        self.regime = REGIME_STABLE
        self.utilization = 0.0
        self.mean_batch = 0.0
        self.occupancy = tuple([1.0] + [0.0] * big_b)
        self.p_wait = 0.0
        self.mean_wait_s = 0.0
        self.throughput_tokens_per_s = 0.0
        self.tpot_s = 0.0

    def _solve(self) -> None:
        station = self.station
        k, big_b = station.count, station.max_batch
        rate = self.rate_per_s
        weights = [(flow, r / rate) for flow, r in self.flows]

        prefill = sum(w * station.prefill_s(flow) for flow, w in weights)
        # demands[i][b] = flow i's D(b), b >= 1, read off the table once.
        demands = [[0.0] + [station.decode_s(flow, b)
                            for b in range(1, big_b + 1)]
                   for flow, _ in weights]
        decode = [0.0] * (big_b + 1)  # decode[b] = mixture D(b), b >= 1
        for b in range(1, big_b + 1):
            decode[b] = sum(w * demand[b]
                            for (_, w), demand in zip(weights, demands))
        steps = sum(w * flow.mean_steps for flow, w in weights)
        mean_out = sum(w * flow.mean_output for flow, w in weights)

        def spacing(q: float) -> float:
            """Per-request completion spacing S(q) at occupancy q."""
            q = min(max(q, 1.0), float(big_b))
            lo = int(math.floor(q))
            hi = min(lo + 1, big_b)
            frac = q - lo
            d = decode[lo] + (decode[hi] - decode[lo]) * frac
            return prefill + d / q

        def gap(q: float) -> float:
            """Mixture inter-token gap at occupancy q."""
            if steps <= 0.0:
                return 0.0
            q = min(max(q, 1.0), float(big_b))
            lo = int(math.floor(q))
            hi = min(lo + 1, big_b)
            frac = q - lo
            return (decode[lo] + (decode[hi] - decode[lo]) * frac) / steps

        s_full = spacing(float(big_b))
        capacity = k / s_full
        self.capacity_req_per_s = capacity
        rho = rate / capacity
        self.rho = rho
        self.regime = _regime(rho)
        overloaded = rho >= 1.0
        served = min(rate, capacity)
        self.throughput_tokens_per_s = served * mean_out

        # Pooled birth-death chain over n in [0, k*B]; geometric tail.
        top = k * big_b
        if overloaded:
            pi = [0.0] * (top + 1)
            pi[top] = 1.0
            p_wait, mean_wait = 1.0, math.inf
        else:
            # Accumulate the chain in log-space: the un-normalized
            # running product overflows for large fleets (k*B in the
            # thousands) long before normalization.
            logs = [0.0]
            for n in range(1, top + 1):
                busy = min(n, k)
                mu = busy / spacing(n / busy)
                logs.append(logs[-1] + math.log(rate / mu))
            peak = max(logs)
            raw = [math.exp(v - peak) for v in logs]
            tail = raw[top] * rho / (1.0 - rho)  # mass beyond n = k*B
            norm = sum(raw) + tail
            pi = [p / norm for p in raw]
            p_wait = (raw[top] / (1.0 - rho)) / norm
            queue_len = (raw[top] / norm) * rho / (1.0 - rho) ** 2
            mean_wait = queue_len / rate
            # M/G/k-style correction: scale the M/M wait by the
            # service-demand variability of the shape mixture.
            mean_wait *= (1.0 + self._service_cv2(weights, big_b)) / 2.0
        self.p_wait = p_wait
        self.mean_wait_s = mean_wait
        theta = math.inf if mean_wait <= 0.0 \
            else (0.0 if not math.isfinite(mean_wait)
                  else p_wait / mean_wait)

        # Per-replica batch-occupancy histogram (the tail sits at B).
        occupancy = [0.0] * (big_b + 1)
        for n, p in enumerate(pi):
            if p <= 0.0:
                continue
            if n == 0:
                occupancy[0] += p
                continue
            busy = min(n, k)
            occupancy[0] += p * (k - busy) / k
            q = n / busy
            lo = int(math.floor(q))
            hi = min(lo + 1, big_b)
            frac = q - lo
            occupancy[lo] += p * (busy / k) * (1.0 - frac)
            occupancy[hi] += p * (busy / k) * frac
        if overloaded:
            occupancy = [0.0] * big_b + [1.0]
        self.occupancy = tuple(occupancy)
        self.utilization = 1.0 if overloaded else \
            min(1.0, sum(p * min(n, k) / k for n, p in enumerate(pi)))
        self.mean_batch = sum(b * p for b, p in enumerate(occupancy))

        # Token-weighted occupancy: states produce tokens at n / gap(q),
        # so heavier batches dominate what a *token* experiences.
        token_states: List[Tuple[float, float]] = []  # (weight, q)
        if steps > 0.0:
            if overloaded:
                token_states.append((1.0, float(big_b)))
            else:
                for n, p in enumerate(pi):
                    if n == 0 or p <= 0.0:
                        continue
                    q = n / min(n, k)
                    g = gap(q)
                    if g > 0.0:
                        token_states.append((p * n / g, q))
                tail_mass = 1.0 - sum(p for p in pi)
                g = gap(float(big_b))
                if tail_mass > 0.0 and g > 0.0:
                    token_states.append((tail_mass * top / g, float(big_b)))
        token_norm = sum(w for w, _ in token_states)

        prefill_share = min(served / k * prefill, _MAX_PREFILL_SHARE)
        inflation = 1.0 / (1.0 - prefill_share)
        if token_norm > 0.0:
            mean_gap = sum(w * gap(q) for w, q in token_states) / token_norm
        else:
            mean_gap = 0.0
        self.tpot_s = mean_gap * inflation

        # Admission-boundary wait: residual of the in-flight iteration
        # plus the residual of an in-flight exclusive prefill.
        boundary = self.utilization * mean_gap / 2.0 \
            + (served / k * prefill) * prefill / 2.0

        self.classes = []
        for (flow, rate_c), demand in zip(self.flows, demands):
            t0 = boundary + station.prefill_s(flow)
            if overloaded:
                self.classes.append(_ClassAtStation(
                    flow=flow, rate_per_s=rate_c, t0_s=t0, p_wait=1.0,
                    theta=0.0, mean_ttft_s=math.inf, tpot_s=self.tpot_s,
                    attainment=0.0, overloaded=True))
                continue
            flow_steps = flow.mean_steps
            if flow_steps > 0.0 and token_norm > 0.0:
                def class_gap(q: float) -> float:
                    q = min(max(q, 1.0), float(big_b))
                    lo = int(math.floor(q))
                    hi = min(lo + 1, big_b)
                    frac = q - lo
                    d_lo = demand[lo]
                    return (d_lo + (demand[hi] - d_lo) * frac) / flow_steps
                gaps = [(w, class_gap(q)) for w, q in token_states]
                tpot_c = sum(w * g for w, g in gaps) / token_norm * inflation
                tpot_ok = sum(w for w, g in gaps
                              if g * inflation <= flow.slo.tpot_s) \
                    / token_norm
            else:
                tpot_c = 0.0
                tpot_ok = 1.0
            entry = _ClassAtStation(
                flow=flow, rate_per_s=rate_c, t0_s=t0, p_wait=p_wait,
                theta=theta, mean_ttft_s=t0 + mean_wait, tpot_s=tpot_c,
                attainment=0.0, overloaded=False)
            ttft_ok = entry.ttft_cdf(flow.slo.ttft_s)
            self.classes.append(dataclasses.replace(
                entry, attainment=ttft_ok * tpot_ok))

    def _service_cv2(self, weights, big_b) -> float:
        """Squared CV of the per-slot service demand across the mixture.

        Uses the affine shape approximation: within a class the demand
        varies chiefly with the output length (uniform, known variance)
        at the class's per-step slope; across classes the means spread.
        Demands are priced per flow so heterogeneous class mixes
        actually contribute the cross-class spread to the second moment.
        """
        station = self.station
        mean = 0.0
        second = 0.0
        for flow, w in weights:
            per_slot = station.decode_s(flow, big_b) / big_b
            x = station.prefill_s(flow) + per_slot
            var = 0.0
            if flow.mean_steps > 0.0:
                slope = per_slot / flow.mean_steps
                lo, hi = flow.output_range
                n = hi - lo + 1
                var = slope * slope * (n * n - 1) / 12.0
            mean += w * x
            second += w * (x * x + var)
        if mean <= 0.0:
            return 0.0
        return max(0.0, second / (mean * mean) - 1.0)


# -- flow assignment -------------------------------------------------------


def _uniform_flows(stations: List[_Station], flows: List[_Flow],
                   rate: float) -> Dict[int, List[Tuple[_Flow, float]]]:
    """Split every class across all stations by full-batch capacity.

    Exact for homogeneous fleets under round-robin/JSQ; for mixed
    non-tiered fleets it equalizes load, approximating the balancing
    routers.
    """
    caps = []
    for station in stations:
        prefill = sum(f.share * station.prefill_s(f) for f in flows)
        decode = sum(f.share * station.decode_s(f, station.max_batch)
                     for f in flows)
        caps.append(station.count
                    / (prefill + decode / station.max_batch))
    total = sum(caps)
    return {i: [(f, rate * f.share * caps[i] / total) for f in flows]
            for i in range(len(stations))}


def _order_stations(stations: List[_Station]) -> List[int]:
    """Router tier order: price ascending, faster decode breaking ties."""
    def key(i: int) -> tuple:
        station = stations[i]
        return (station.price_usd / station.count,
                station.table.step_time(1, 128), station.tier)
    return sorted(range(len(stations)), key=key)


def _tiered_flows(stations: List[_Station], flows: List[_Flow],
                  rate: float
                  ) -> Tuple[Dict[int, List[Tuple[_Flow, float]]],
                             int, bool, Dict[str, float]]:
    """Damped fixed point over class→tier admission shares.

    Mirrors the :class:`~repro.cluster.tiering.TieredRouter`: each class
    homes on the cheapest eligible tier whose unloaded service clears
    its bar, and the share of arrivals that would see the TTFT bar
    broken (the stationary spill probability) cascades to pricier
    eligible tiers; saturated leftovers spread capacity-proportionally,
    matching the router's earliest-finish degrade.
    """
    order = _order_stations(stations)
    eligible: Dict[str, List[int]] = {}
    home: Dict[str, int] = {}
    for flow in flows:
        elig = [i for i in order
                if stations[i].param_count >= flow.min_model_params]
        if not elig:  # tier outage semantics: fall below the floor
            elig = list(order)
        eligible[flow.name] = elig
        pos = next((p for p, i in enumerate(elig)
                    if stations[i].prefill_s(flow) <= flow.slo.ttft_s
                    and stations[i].per_token_s(flow) <= flow.slo.tpot_s),
                   None)
        if pos is None:
            pos = min(range(len(elig)),
                      key=lambda p: (stations[elig[p]].per_token_s(flow), p))
        home[flow.name] = pos

    # flows_by_station[i][flow.name] = rate routed to station i
    current: Dict[int, Dict[str, float]] = \
        {i: {f.name: 0.0 for f in flows} for i in range(len(stations))}
    for flow in flows:
        current[eligible[flow.name][home[flow.name]]][flow.name] = \
            rate * flow.share
    by_name = {f.name: f for f in flows}

    def assignment(table: Dict[int, Dict[str, float]]
                   ) -> Dict[int, List[Tuple[_Flow, float]]]:
        return {i: [(by_name[name], r) for name, r in rates.items()
                    if r > 0.0]
                for i, rates in table.items()}

    converged = False
    iterations = 0
    spill_rate: Dict[str, float] = {f.name: 0.0 for f in flows}
    for iterations in range(1, _FIXED_POINT_MAX_ITERS + 1):
        solutions = {i: _StationSolution(stations[i], flow_list)
                     for i, flow_list in assignment(current).items()}
        proposal: Dict[int, Dict[str, float]] = \
            {i: {f.name: 0.0 for f in flows} for i in range(len(stations))}
        spill_rate = {f.name: 0.0 for f in flows}
        for flow in flows:
            remaining = rate * flow.share
            elig = eligible[flow.name]
            for pos in range(home[flow.name], len(elig)):
                if remaining <= 0.0:
                    break
                i = elig[pos]
                sol = solutions.get(i)
                if sol is None or sol.rho >= 1.0:
                    p_stay = 0.0
                else:
                    entry = next((c for c in sol.classes
                                  if c.flow.name == flow.name), None)
                    if entry is not None:
                        p_stay = entry.ttft_cdf(flow.slo.ttft_s)
                    else:
                        # No current flow here: probe with the station's
                        # present wait statistics.
                        t0 = stations[i].prefill_s(flow)
                        budget = flow.slo.ttft_s - t0
                        if budget < 0.0:
                            p_stay = 0.0
                        elif not math.isfinite(sol.mean_wait_s) \
                                or sol.mean_wait_s <= 0.0:
                            p_stay = 0.0 if not math.isfinite(
                                sol.mean_wait_s) else 1.0
                        else:
                            theta = sol.p_wait / sol.mean_wait_s
                            p_stay = 1.0 - sol.p_wait * math.exp(
                                -theta * budget)
                take = remaining * p_stay
                proposal[i][flow.name] += take
                if pos > home[flow.name]:
                    spill_rate[flow.name] += take
                remaining -= take
            if remaining > 1e-12:
                # Every eligible tier saturated for this class: spread
                # the rest capacity-proportionally (earliest-finish).
                caps = []
                for i in elig:
                    sol = solutions.get(i)
                    caps.append(sol.capacity_req_per_s
                                if sol is not None
                                and sol.capacity_req_per_s > 0.0
                                else stations[i].count)
                total = sum(caps)
                for i, cap in zip(elig, caps):
                    extra = remaining * cap / total
                    proposal[i][flow.name] += extra
                    if i != elig[home[flow.name]]:
                        spill_rate[flow.name] += extra

        delta = 0.0
        for i in current:
            for name in current[i]:
                new = (1.0 - _FIXED_POINT_DAMPING) * current[i][name] \
                    + _FIXED_POINT_DAMPING * proposal[i][name]
                delta = max(delta, abs(new - current[i][name]))
                current[i][name] = new
        if delta <= _FIXED_POINT_TOL * max(rate, 1e-12):
            converged = True
            break
    return assignment(current), iterations, converged, spill_rate


# -- reports ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StationReport:
    """Steady state of one tier under the solved admission shares."""

    tier: Tier
    replicas: int
    rate_per_s: float
    capacity_req_per_s: float
    rho: float
    regime: str
    utilization: float
    mean_batch: float
    occupancy: Tuple[float, ...]
    p_wait: float
    mean_wait_s: float
    tpot_s: float
    throughput_tokens_per_s: float
    class_rates: Dict[str, float]

    @property
    def label(self) -> str:
        return tier_label(self.tier)


@dataclasses.dataclass(frozen=True)
class ClassReport:
    """One request class aggregated across the tiers that serve it."""

    name: str
    share: float
    rate_per_s: float
    attainment: float
    goodput_tokens_per_s: float
    mean_ttft_s: float
    tpot_s: float
    spill_rate_per_s: float
    tier_rates: Dict[str, float]


@dataclasses.dataclass(frozen=True)
class FluidReport:
    """The fleet's analytic steady state at one (config, rate, mix) point."""

    rate_per_s: float
    throughput_tokens_per_s: float
    goodput_tokens_per_s: float
    attainment: float
    mean_ttft_s: float
    ttft_percentiles: Dict[float, float]
    tpot_s: float
    capacity_req_per_s: float
    max_rho: float
    regime: str
    fleet_price_usd: float
    dollars_per_mtok: float
    stations: Tuple[StationReport, ...]
    classes: Tuple[ClassReport, ...]
    iterations: int
    converged: bool
    tenant_shares: Optional[Dict[str, float]] = None
    label: Optional[str] = None

    @property
    def overloaded(self) -> bool:
        return self.regime == REGIME_OVERLOADED


def _mixture_quantile(components: List[Tuple[float, _ClassAtStation]],
                      q: float) -> float:
    """Quantile of the TTFT mixture across (class, station) components."""
    total = sum(w for w, _ in components)
    if total <= 0.0:
        return 0.0
    reachable = sum(w for w, c in components if not c.overloaded) / total
    if reachable < q:
        return math.inf
    lo = min(c.t0_s for _, c in components if not c.overloaded)
    hi = max(c.t0_s for _, c in components if not c.overloaded) + 1e-9

    def cdf(t: float) -> float:
        return sum(w * c.ttft_cdf(t) for w, c in components) / total

    for _ in range(200):
        if cdf(hi) >= q:
            break
        hi *= 2.0
    else:
        return math.inf
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if cdf(mid) >= q:
            if hi == mid:
                break  # (lo, hi) is a fixed point: every later pass too
            hi = mid
        else:
            if lo == mid:
                break
            lo = mid
    return hi


# -- public API ------------------------------------------------------------


def solve(config: ClusterConfig, rate_per_s: float, *,
          mix: Optional[Sequence[Tuple[str, float]]] = None,
          classes: Optional[Mapping[str, RequestClass]] = None,
          spec: Optional[object] = None,
          slo: Optional[SLO] = None,
          router: str = "auto",
          percentiles: Sequence[float] = (0.5, 0.9, 0.99),
          tenant_weights: Optional[Mapping[str, float]] = None,
          amortization_years: float = DEFAULT_AMORTIZATION_YEARS,
          label: Optional[str] = None,
          _stations: Optional[List[_Station]] = None) -> FluidReport:
    """Solve a fleet's steady state analytically at one operating point.

    Args:
        config: The fleet, as the simulator declares it.
        rate_per_s: Fleet-wide Poisson arrival rate.
        mix: Optional class mix ``((name, share), ...)`` — engages the
            tiered flow fixed point with per-class SLOs from *classes*
            (default: the stock matrix).
        spec: Shape spec for class-less workloads (any object with
            ``input_len_range`` / ``output_len_range``; defaults match
            :func:`repro.serving.arrivals.iter_poisson_arrivals`).
        slo: Latency bar for class-less workloads (default stock
            :class:`~repro.serving.slo.SLO`).
        router: ``auto`` (tiered iff a mix is given), ``uniform``
            (capacity-proportional split), or ``tiered``.
        percentiles: TTFT quantiles to report.
        tenant_weights: Optional weighted-fair tenant weights; reported
            as each tenant's guaranteed share of served capacity.
        amortization_years: Hardware amortization horizon for $/Mtok.

    Returns:
        A :class:`FluidReport`. Overload is *flagged* — throughput pins
        to capacity, waits are infinite, attainment zero — never
        silently extrapolated.
    """
    if rate_per_s <= 0.0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    flows = _resolve_flows(mix, spec, slo, classes)
    stations = _stations if _stations is not None \
        else _group_stations(config)
    if not stations:
        raise ValueError("the cluster config has no replicas")

    if router == "auto":
        router = "tiered" if mix is not None else "uniform"
    if router == "tiered":
        table, iterations, converged, spill = \
            _tiered_flows(stations, flows, rate_per_s)
    elif router == "uniform":
        table = _uniform_flows(stations, flows, rate_per_s)
        iterations, converged = 1, True
        spill = {f.name: 0.0 for f in flows}
    else:
        raise ValueError(f"unknown fluid router {router!r}; "
                         f"expected auto, uniform, or tiered")

    solutions = [(_StationSolution(stations[i], flow_list), i)
                 for i, flow_list in sorted(table.items())
                 ]

    station_reports = []
    components: List[Tuple[float, _ClassAtStation]] = []
    per_class: Dict[str, List[_ClassAtStation]] = {f.name: [] for f in flows}
    throughput = 0.0
    max_rho = 0.0
    for sol, i in solutions:
        station = stations[i]
        throughput += sol.throughput_tokens_per_s
        if sol.rate_per_s > 0.0:
            max_rho = max(max_rho, sol.rho)
        station_reports.append(StationReport(
            tier=station.tier, replicas=station.count,
            rate_per_s=sol.rate_per_s,
            capacity_req_per_s=sol.capacity_req_per_s,
            rho=sol.rho, regime=sol.regime,
            utilization=sol.utilization, mean_batch=sol.mean_batch,
            occupancy=sol.occupancy, p_wait=sol.p_wait,
            mean_wait_s=sol.mean_wait_s, tpot_s=sol.tpot_s,
            throughput_tokens_per_s=sol.throughput_tokens_per_s,
            class_rates={c.flow.name: c.rate_per_s for c in sol.classes}))
        for entry in sol.classes:
            components.append((entry.rate_per_s, entry))
            per_class[entry.flow.name].append(entry)

    class_reports = []
    goodput = 0.0
    attained = 0.0
    ttft_num = 0.0
    tpot_num = 0.0
    for flow in flows:
        entries = per_class[flow.name]
        rate_c = sum(e.rate_per_s for e in entries)
        if rate_c <= 0.0:
            continue
        att = sum(e.rate_per_s * e.attainment for e in entries) / rate_c
        mean_ttft = sum(e.rate_per_s * e.mean_ttft_s for e in entries) \
            / rate_c
        tpot = sum(e.rate_per_s * e.tpot_s for e in entries) / rate_c
        good = rate_c * att * flow.mean_output
        goodput += good
        attained += rate_c * att
        ttft_num += rate_c * mean_ttft
        tpot_num += rate_c * tpot
        class_reports.append(ClassReport(
            name=flow.name, share=flow.share, rate_per_s=rate_c,
            attainment=att, goodput_tokens_per_s=good,
            mean_ttft_s=mean_ttft, tpot_s=tpot,
            spill_rate_per_s=spill.get(flow.name, 0.0),
            tier_rates={tier_label(s.station.tier):
                        next((c.rate_per_s for c in s.classes
                              if c.flow.name == flow.name), 0.0)
                        for s, _ in solutions}))

    fleet_price = sum(s.price_usd for s in stations)
    dollars_per_s = fleet_price / (amortization_years * _SECONDS_PER_YEAR)
    dollars_per_mtok = math.inf if throughput <= 0.0 \
        else dollars_per_s / throughput * 1e6
    capacity = sum(s.capacity_req_per_s for s, _ in solutions
                   if s.capacity_req_per_s > 0.0)

    shares = None
    if tenant_weights:
        total_w = sum(tenant_weights.values())
        if total_w <= 0:
            raise ValueError("tenant weights must sum to a positive value")
        # Work-conserving weighted-fair admission: in steady state each
        # tenant is guaranteed this share of the *served* request rate;
        # slack unused by one tenant redistributes to the others.
        shares = {tenant: w / total_w
                  for tenant, w in tenant_weights.items()}

    return FluidReport(
        rate_per_s=rate_per_s,
        throughput_tokens_per_s=throughput,
        goodput_tokens_per_s=goodput,
        attainment=attained / rate_per_s,
        mean_ttft_s=ttft_num / rate_per_s if rate_per_s else 0.0,
        ttft_percentiles={q: _mixture_quantile(components, q)
                          for q in percentiles},
        tpot_s=tpot_num / rate_per_s if rate_per_s else 0.0,
        capacity_req_per_s=capacity,
        max_rho=max_rho,
        regime=_regime(max_rho),
        fleet_price_usd=fleet_price,
        dollars_per_mtok=dollars_per_mtok,
        stations=tuple(station_reports),
        classes=tuple(class_reports),
        iterations=iterations,
        converged=converged,
        tenant_shares=shares,
        label=label,
    )


@dataclasses.dataclass(frozen=True)
class FluidScenario:
    """One (fleet, rate, mix) grid point for :func:`solve_grid`."""

    config: ClusterConfig
    rate_per_s: float
    mix: Optional[Sequence[Tuple[str, float]]] = None
    spec: Optional[object] = None
    slo: Optional[SLO] = None
    label: Optional[str] = None


def solve_grid(scenarios: Sequence[Union[FluidScenario,
                                         Tuple[ClusterConfig, float]]],
               **common) -> List[FluidReport]:
    """Solve many what-if points, amortizing cost-table warmup.

    Demand expectations live on the shared
    :class:`~repro.engine.stepcost.DecodeCostTable` registry, so every
    grid point after the first with the same (platform, model, backend,
    shape mix) reuses warmed prefix curves and demand integrals;
    station groupings are reused per distinct config within the call.
    Extra keyword arguments pass through to :func:`solve` and apply to
    every scenario that does not override them.
    """
    # Keyed by object identity: configs need not be hashable, and the
    # scenario list keeps them alive for the duration of the call.
    station_cache: Dict[int, List[_Station]] = {}
    reports = []
    for scenario in scenarios:
        if isinstance(scenario, FluidScenario):
            config, rate = scenario.config, scenario.rate_per_s
            overrides = {key: value for key, value in (
                ("mix", scenario.mix), ("spec", scenario.spec),
                ("slo", scenario.slo), ("label", scenario.label))
                if value is not None}
        else:
            config, rate = scenario
            overrides = {}
        stations = station_cache.get(id(config))
        if stations is None:
            stations = _group_stations(config)
            station_cache[id(config)] = stations
        kwargs = dict(common)
        kwargs.update(overrides)
        reports.append(solve(config, rate, _stations=stations, **kwargs))
    return reports


def saturation_rate(config: ClusterConfig, *,
                    mix: Optional[Sequence[Tuple[str, float]]] = None,
                    classes: Optional[Mapping[str, RequestClass]] = None,
                    spec: Optional[object] = None,
                    slo: Optional[SLO] = None,
                    router: str = "auto",
                    rel_tol: float = 1e-4) -> float:
    """The fleet's saturation arrival rate (requests/s).

    For uniform routing this is closed-form (the capacity sum); for
    tiered routing the class→tier flows shift with load, so the edge is
    found by bisection on the solved ``max_rho``.
    """
    flows = _resolve_flows(mix, spec, slo, classes)
    stations = _group_stations(config)
    caps = []
    for station in stations:
        prefill = sum(f.share * station.prefill_s(f) for f in flows)
        decode = sum(f.share * station.decode_s(f, station.max_batch)
                     for f in flows)
        caps.append(station.count / (prefill + decode / station.max_batch))
    uniform_cap = sum(caps)
    if router == "auto":
        router = "tiered" if mix is not None else "uniform"
    if router == "uniform":
        return uniform_cap

    def max_rho(rate: float) -> float:
        return solve(config, rate, mix=mix, classes=classes, spec=spec,
                     slo=slo, router=router, _stations=stations).max_rho

    lo, hi = uniform_cap * 1e-3, uniform_cap
    while max_rho(hi) < 1.0:
        lo, hi = hi, hi * 2.0
        if hi > uniform_cap * 64:
            # No saturating bracket found within 64x the uniform
            # capacity: signal "not found" rather than return an
            # arbitrary non-saturating rate.
            return math.inf
    while (hi - lo) > rel_tol * hi:
        mid = (lo + hi) / 2.0
        if max_rho(mid) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi
