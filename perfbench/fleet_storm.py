"""``fleet-storm``: a batching-heavy, fault-heavy stream through ``FleetServer``.

Three devices on the virtual clock serve ``TENANTS`` tenants.  Each tenant
owns one stationary GEMV matrix, so its requests share a batch signature
and leases fuse into batches; the vector operand changes per request.
Operands are small integers stored as float32, so every product and sum is
exact and each result is checked with ``np.array_equal`` against NumPy.

In every storm one seeded device dies after ``KILL_CHUNK`` chunks' worth
of arrivals, and about 1% of attempts take a transient DMA fault and 0.5% a dispatch
fault; the fleet retries, migrates and compensates.  A streaming driver
submits ``CHUNK`` requests with seeded Poisson arrival times (starting no
earlier than the fleet's clock), drains, checks and drops every handle,
so the driver keeps no per-request state across chunks.

Every ``STORM_CHUNKS`` chunks the storm starts over on a fresh fleet
(seed + storm index), built outside the timed phase.  The fleet's
per-request cost grows with the requests it has served; bounded storms
keep that growth from dominating the run, where it made whole-run
numbers swing with the host's memory contention.

Billing is checked per chunk (each completed request has exactly one
usage record) and each storm's fleet partition when it ends.  Every
request of every storm feeds the simulated metrics and the digest.  They
depend only on the seed and ``--seconds``, not on the host: the fleet
runs on the virtual clock and every chunk is drained before the next one
arrives.  Each storm has its own device kill, so the simulated tail
latency is a mean over many kills rather than the luck of one.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from array import array

import numpy as np
from repro.eval.metrics import geometric_mean
from repro.serve.metrics import percentile

import layers
import spans
from measure import Digest, HostSpeed, Outcome, decile_growth, peak_rss_mb

TENANTS = 8
#: Matrix shapes of the tenants (each gets a seeded +-1 jitter per side).
BASE_SHAPES = ((16, 16), (24, 32), (32, 32), (32, 48), (48, 32), (48, 48),
               (64, 48), (64, 64))
NUM_DEVICES = 3
CHUNK = 256
#: Chunks per storm: each storm is a fresh fleet serving 8192 requests.
STORM_CHUNKS = 32
#: The device dies once this many chunks' worth of arrivals have passed.
KILL_CHUNK = 8
#: Requests per second of ``--seconds``: a run serves this many, which
#: takes about that long on a 2-vCPU AMD EPYC VM.  Per-request cost grows
#: with requests served, so a fixed count keeps runs comparable.
REQUESTS_PER_SECOND = 4000
#: Simulated arrival rate (requests per simulated second): half the
#: fleet's saturated capacity.  With every chunk's requests arriving at
#: once (faults and the kill as below), the seed commit served 105k-116k
#: requests per simulated second over seeds 1, 2, 3 and 11; half the
#: lowest of these gives batches of about 5 requests (``serve.batch_occupancy``)
#: and leaves the fleet headroom, so no backlog builds up.
RATE_PER_S = 52_500.0
DMA_FAULT_P = 0.01
DISPATCH_FAULT_P = 0.005
MAX_ATTEMPTS = 6
SETUPS = 15
#: Chunks between two host-speed probes (about a quarter of a second).
PROBE_EVERY = 4
#: Billed usage counters -> the per-layer count metrics they feed.
USAGE_COUNTS = {
    "gemv_count": "hw.gemv_count",
    "crossbar_cell_writes": "hw.cell_writes",
    "macs": "hw.macs",
    "dma_bytes": "hw.dma_bytes",
}


def make_tenants(rng: random.Random, np_rng, compiler) -> list:
    """``TENANTS`` GEMV tenants: (name, params, integer-valued float32
    matrix, host-only cost estimate of the kernel at that size)."""
    from repro.host.cost_model import HostCostModel
    from repro.ir.normalize import normalize_reductions
    from repro.system.config import SystemConfig
    from repro.trace.scenarios import GEMV_SOURCE

    host_model = HostCostModel(SystemConfig().host)
    tenants = []
    for index in range(TENANTS):
        m, n = (side + rng.randint(-1, 1) for side in BASE_SHAPES[index])
        matrix = np_rng.integers(0, 8, size=(m, n)).astype(np.float32)
        params = {"M": m, "N": n}
        compiled = compiler.compile(GEMV_SOURCE, size_hint=params)
        host = host_model.estimate_program(
            normalize_reductions(compiled.source_program), params
        )
        tenants.append((f"tenant{index}", params, matrix, host))
    return tenants


def gemv_expected(matrix, x):
    """Exact GEMV result: small integers make every float32 sum exact."""
    return (matrix.astype(np.float64) @ x).astype(np.float32)


class Storm:
    """One fleet with its tenants' operands and host baselines."""

    def __init__(self, seed: int):
        from repro.fleet.faults import DeviceKill, FaultPlan, OpFaultRule
        from repro.fleet.server import FleetConfig, FleetServer
        from repro.serve.admission import TenantQuota
        from repro.trace.scenarios import GEMV_SOURCE

        rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)
        self.source = GEMV_SOURCE
        kill_s = KILL_CHUNK * CHUNK / RATE_PER_S
        plan = FaultPlan(
            kills=[DeviceKill(device_id=rng.randrange(NUM_DEVICES), at_s=kill_s)],
            op_rules=[
                OpFaultRule("dma", probability=DMA_FAULT_P),
                OpFaultRule("dispatch", probability=DISPATCH_FAULT_P),
            ],
            seed=seed,
        )
        self.fleet = FleetServer(
            FleetConfig(
                num_devices=NUM_DEVICES,
                fault_plan=plan,
                max_attempts=MAX_ATTEMPTS,
                # Admission never sheds here: the storm is about faults.
                default_quota=TenantQuota(max_queue_depth=1 << 20),
            )
        )
        self.tenants = make_tenants(rng, self.np_rng, self.fleet.compiler)
        self.usage_cursor = {name: 0 for name, *_ in self.tenants}
        # Warm-up: one request per tenant through the whole serving path.
        batch = [self._submit(k, 0.0) for k in range(TENANTS)]
        self.fleet.drain()
        self.warm_ok = all(self._check(item) for item in batch)
        self._new_usages()

    def _submit(self, tenant: int, arrival_s: float):
        name, params, matrix, _ = self.tenants[tenant]
        x = self.np_rng.integers(0, 8, size=params["N"]).astype(np.float32)
        handle = self.fleet.submit(
            name, self.source, params,
            {"A": matrix, "x": x, "y": np.zeros(params["M"], np.float32)},
            arrival_s=arrival_s,
        )
        return handle, tenant, x

    def _check(self, item) -> bool:
        from repro.serve.request import RequestStatus

        handle, tenant, x = item
        if handle.status is not RequestStatus.COMPLETED:
            return False
        expected = gemv_expected(self.tenants[tenant][2], x)
        return np.array_equal(handle.result()["y"], expected)

    def _new_usages(self) -> dict:
        """Usage records billed since the last call, per tenant."""
        fresh = {}
        for name, cursor in self.usage_cursor.items():
            usages = self.fleet.ledger.account(name).usages
            fresh[name] = usages[cursor:]
            self.usage_cursor[name] = len(usages)
        return fresh


def measure(seed: int, seconds: float, traced: bool) -> Outcome:
    """Set up ``SETUPS`` times, then stream ``REQUESTS_PER_SECOND *
    seconds`` requests in chunks, through a fresh fleet (storm) every
    ``STORM_CHUNKS`` chunks."""
    saved: list = []
    recorder = spans.Recorder(root="bench.chunk") if traced else None
    try:
        out = _measure(seed, seconds, recorder, saved)
    finally:
        spans.restore(saved)
    if recorder:
        out.spans = recorder.spans
    return out


def _measure(seed, seconds, recorder, saved) -> Outcome:
    from repro.compiler.driver import TdoCimCompiler
    from repro.serve.dispatch import LeaseExecutor
    from repro.serve.request import RequestStatus

    compile_s, dispatch_s = spans.new_sink(), spans.new_sink()
    spans.install_timer(TdoCimCompiler, "compile", compile_s, saved)
    spans.install_timer(LeaseExecutor, "dispatch", dispatch_s, saved)

    setups = []
    host = HostSpeed()
    for _ in range(SETUPS):
        start = time.perf_counter()
        storm = Storm(seed)
        setups.append(time.perf_counter() - start)
        host.probe()
    host.end_setup()
    del compile_s[:], dispatch_s[:]
    if recorder:
        spans.install(
            recorder,
            layers.compiler_table() + layers.simulator_table() + layers.serve_table(),
            saved,
        )
        recorder.reset()

    out = Outcome(host=host, setups=setups)
    digest = Digest()
    latencies = array("d")  # host seconds, submit call -> chunk drained
    growth = []             # per storm: last tenth of chunks over first
    sim_latency_us, energy_nj, energy_gain, edp_gain = (array("d") for _ in range(4))
    attempts = completed = hits = lookups = 0
    faults = retries = migrations = batches = batched = 0
    counts = dict.fromkeys(USAGE_COUNTS.values(), 0)
    checks = dict.fromkeys(
        ("warm_up_correct", "exactly_once_billing", "fleet_partition",
         "a_device_died"), True)
    storms = max(1, round(REQUESTS_PER_SECOND * seconds / (CHUNK * STORM_CHUNKS)))
    elapsed = 0.0
    for index in range(storms):
        if index:           # later storms are built outside the timed phase
            marks = len(compile_s), len(dispatch_s)
            del storm, fleet, metrics
            # Free the finished storm's object graph here, not in a
            # collection that would land in a timed chunk.
            gc.collect()
            storm = Storm(seed + index)
            del compile_s[marks[0]:], dispatch_s[marks[1]:]
        fleet = storm.fleet
        metrics = fleet.metrics
        base = (metrics.faults_injected, metrics.retries, metrics.migrations,
                len(metrics.batch_sizes))
        cache0 = (fleet.compile_cache.hits, fleet.compile_cache.misses)
        arrival_s = fleet.clock.now_s
        chunk_cost = []     # host seconds per request, per chunk
        for chunk in range(STORM_CHUNKS):
            chunk_start = time.perf_counter()
            if recorder:
                recorder.request_id = index * STORM_CHUNKS + chunk
                recorder.enter("bench.chunk")
            arrival_s = max(arrival_s, fleet.clock.now_s)
            batch, submitted = [], []
            for _ in range(CHUNK):
                arrival_s += storm.np_rng.exponential(1.0 / RATE_PER_S)
                submitted.append(time.perf_counter())
                batch.append(storm._submit(int(storm.np_rng.integers(TENANTS)), arrival_s))
            fleet.drain()
            drained = time.perf_counter()
            if recorder:
                recorder.exit()
            # The chunk's program time ends here: checking is not timed.
            chunk_s = drained - chunk_start
            fresh = storm._new_usages()
            completed_ids = {name: set() for name, *_ in storm.tenants}
            for item in batch:
                ok = storm._check(item)
                out.failed += not ok
                if ok:
                    completed_ids[storm.tenants[item[1]][0]].add(item[0].request_id)
            for name, usages in fresh.items():
                ids = [usage.request_id for usage in usages]
                checks["exactly_once_billing"] &= (
                    len(ids) == len(set(ids)) and set(ids) == completed_ids[name]
                )
            elapsed += chunk_s
            out.attempted += CHUNK
            if chunk % PROBE_EVERY == 0:
                host.probe()
            latencies.extend(drained - t for t in submitted)
            chunk_cost.append(chunk_s / CHUNK)
            by_id = {u.request_id: u for us in fresh.values() for u in us}
            for handle, tenant, _ in batch:
                attempts += handle.attempts
                if handle.status is not RequestStatus.COMPLETED:
                    continue        # counted in out.failed
                usage = by_id[handle.request_id]
                baseline = storm.tenants[tenant][3]
                completed += 1
                for field, metric in USAGE_COUNTS.items():
                    counts[metric] += getattr(usage, field)
                sim_latency_us.append(handle.latency_s * 1e6)
                energy_nj.append(usage.energy_j * 1e9)
                energy_gain.append(baseline.energy_j / usage.energy_j)
                edp_gain.append(
                    baseline.energy_j * baseline.time_s / (usage.energy_j * usage.service_s)
                )
                digest.add(
                    handle.request_id, handle.tenant, handle.device_id,
                    handle.attempts, handle.migrations, handle.latency_s,
                    usage.service_s, usage.host_energy_j, usage.offload_energy_j,
                    usage.accelerator_energy_j, usage.crossbar_cell_writes,
                    usage.crossbar_write_ops, usage.gemv_count, usage.macs,
                    usage.dma_bytes, handle.result()["y"].tobytes(),
                )
        storm_counts = (
            metrics.faults_injected - base[0], metrics.retries - base[1],
            metrics.migrations - base[2],
        )
        digest.add(*storm_counts, fleet.device_states())
        faults += storm_counts[0]
        retries += storm_counts[1]
        migrations += storm_counts[2]
        batches += len(metrics.batch_sizes) - base[3]
        batched += sum(metrics.batch_sizes[base[3]:])
        growth.append(decile_growth(chunk_cost))
        hits += fleet.compile_cache.hits - cache0[0]
        lookups += (fleet.compile_cache.hits + fleet.compile_cache.misses
                    - cache0[0] - cache0[1])
        checks["warm_up_correct"] &= storm.warm_ok
        checks["fleet_partition"] &= all(fleet.verify_fleet_partition().values())
        checks["a_device_died"] &= "drained" in fleet.device_states().values()
        fleet.shutdown()

    out.checks = {"outputs_exact": out.failed == 0, **checks}
    out.digest = digest.hexdigest()
    out.e2e = {
        "setup_s": statistics.median(setups),
        "throughput_rps": out.attempted / elapsed,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "compile_ms_p50": percentile(compile_s, 50) * 1e3,
        "simulate_ms_p50": percentile(dispatch_s, 50) * 1e3,
        "sim_energy_gain_geomean": geometric_mean(energy_gain),
        "sim_edp_gain_geomean": geometric_mean(edp_gain),
        "sim_latency_p99_us": percentile(sim_latency_us, 99),
        "sim_energy_per_request_nj": statistics.fmean(energy_nj),
    }
    out.extra = {
        "failed_fraction": (out.failed / out.attempted, "ratio"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
    }
    out.layers = {
        "compiler.cache_hit_ratio": hits / lookups,
        "compiler.cache_lookups": lookups / out.attempted,
        "serve.batch_occupancy": batched / batches,
        # Fault counts per storm (8192 requests, one device kill).
        "fleet.faults_injected": faults / storms,
        "fleet.retries": retries / storms,
        "fleet.migrations": migrations / storms,
        "serve.useful_attempt_ratio": completed / attempts,
        "serve.cost_growth": statistics.fmean(growth),
    }
    out.layers.update({name: total / completed for name, total in counts.items()})
    if recorder:
        _traced_layers(out, recorder, elapsed)
    return out


def _traced_layers(out: Outcome, recorder, elapsed: float) -> None:
    names = (
        layers.COMPILER_LAYERS + layers.SIMULATOR_LAYERS + layers.SERVE_LAYERS
        + ("bench.chunk",)
    )
    sums = recorder.layer_rows(names)
    requests = len(recorder.rows) * CHUNK
    per_request_us = {name: sums[name] / requests * 1e6 for name in names}
    for name in layers.COMPILER_LAYERS + layers.SIMULATOR_LAYERS:
        out.layers[layers.metric_name(name, "ms")] = per_request_us[name] / 1e3
    for name in layers.SERVE_LAYERS:
        out.layers[layers.metric_name(name, "us")] = per_request_us[name]
    # serve.metrics_us is all MetricsRegistry time, snapshots included.
    out.layers["serve.metrics_us"] += out.layers["serve.metrics_snapshot_us"]
    total_ms = elapsed / requests * 1e3
    out.ledger = [(name, per_request_us[name] / 1e3) for name in names]
    out.ledger.append(("unattributed", total_ms - sum(v for _, v in out.ledger)))
    out.ledger_total_ms = total_ms
