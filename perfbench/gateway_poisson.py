"""``gateway-poisson``: open-loop traffic through ``AsyncGateway`` with one worker.

One gateway lifetime has two phases, both driven from this process with
``AsyncGateway.submit_nowait``:

* **steady** — an open-loop Poisson schedule at ``RATE_RPS`` for
  ``STEADY_SHARE`` of each cycle's share of ``--seconds``.  Each request is timed from the moment it
  was *due*, not from when it was submitted, so a stalled generator or
  gateway shows up as latency; how late the generator ran is reported as
  ``loadgen.lag``.  A request that fails, is rejected or takes longer than
  ``SLO_MS`` misses the service-level objective.
* **burst** — a saturating phase that serves a fixed number of requests
  with ``BURST_WINDOW`` of them outstanding; completions per second here
  are the gateway's capacity (``throughput_rps``).

The run alternates the two phases ``CYCLES`` times in one pool lifetime.

The request bodies come from per-tenant banks of integer-valued GEMV
operands (shared with ``fleet-storm``), so every result is checked
exactly.  At the end the gateway's partition is verified and each
completed request must have exactly one usage record.

The worker runs in a forked process.  Its probes are installed here
before the pool forks, so the worker inherits them; the worker writes
what they recorded into a file in ``perfbench/out`` when it exits, and
this process reads it after ``drain()`` has joined the worker.  Host-speed
probes (``measure.HostSpeed``) run in this process after each phase and
in the worker while it is idle, since each process has a virtual CPU of
its own.
"""

from __future__ import annotations

import asyncio
import functools
import json
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
from repro.eval.metrics import geometric_mean
from repro.serve.metrics import percentile

import layers
import spans
from fleet_storm import TENANTS, USAGE_COUNTS, gemv_expected, make_tenants
from measure import Digest, HostSpeed, Outcome, decile_growth, peak_rss_mb

RATE_RPS = 150.0
SLO_MS = 50.0
STEADY_SHARE = 0.6
CYCLES = 4
#: Burst requests per second of ``--seconds`` (burst share): the burst
#: phases serve a fixed count, about their share of the run on a 2-vCPU
#: AMD EPYC VM.  Per-request cost grows with requests served, so a fixed
#: count keeps runs comparable.
BURST_PER_SECOND = 600
BURST_WINDOW = 32
PREFIX_REQUESTS = 1024
SETUPS = 15
#: Least time between two host-speed probes in the idle worker (s).
WORKER_PROBE_S = 0.25
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKER_FILE = "worker.json"
_now = time.perf_counter


class WorkerProbe:
    """Probes that run inside the forked worker.

    Always: the host time of every ``TdoCimCompiler.compile``,
    ``LeaseExecutor.dispatch`` and ``serve_one`` call.  Traced runs add
    spans around every layer the worker calls, rooted at ``serve_one``."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.recorder = spans.Recorder(root="worker.serve_one", edges=layers.GATEWAY_WIRE)
        self.sinks = {name: spans.new_sink() for name in ("compile", "dispatch", "serve")}
        self.directory: Path = OUT_DIR

    def install(self, saved: list) -> None:
        import repro.gateway.server as server_module
        import repro.gateway.worker as worker_module
        from repro.compiler.driver import TdoCimCompiler
        from repro.serve.dispatch import LeaseExecutor

        spans.install_timer(TdoCimCompiler, "compile", self.sinks["compile"], saved)
        spans.install_timer(LeaseExecutor, "dispatch", self.sinks["dispatch"], saved)
        spans.install_timer(worker_module, "serve_one", self.sinks["serve"], saved)
        if self.traced:
            # One recorder object serves both processes: after the fork
            # each process records into its own copy of it.
            table = (
                layers.compiler_table() + layers.simulator_table()
                + layers.serve_table() + layers.wire_table()
                + [(worker_module, "serve_one", "worker.serve_one",
                    lambda args, result: args[1].request_id)]
            )
            spans.install(self.recorder, table, saved)

        original = server_module.worker_main
        probe = self

        def worker_main(worker_id, config, request_queue, response_queue):
            probe.reset()
            probe.idle_probes(request_queue)
            try:
                original(worker_id, config, request_queue, response_queue)
            finally:
                probe.write()

        saved.append((server_module, "worker_main", original))
        server_module.worker_main = worker_main

    def reset(self) -> None:
        """In the worker: forget what the parent recorded before the fork."""
        for sink in self.sinks.values():
            del sink[:]
        self.recorder.reset()
        self.host = HostSpeed()

    def idle_probes(self, request_queue) -> None:
        """In the worker: probe the host's speed (``measure.HostSpeed``)
        when the worker is about to wait for a request and none is queued,
        at most every ``WORKER_PROBE_S``.  The worker has a virtual CPU of
        its own, so the parent's probes do not measure it."""
        get = request_queue.get
        last = [_now()]

        def idle_get(*args, **kwargs):
            if _now() - last[0] >= WORKER_PROBE_S and request_queue.empty():
                self.host.probe()
                last[0] = _now()
            return get(*args, **kwargs)

        request_queue.get = idle_get

    def write(self) -> None:
        data = {name: list(sink) for name, sink in self.sinks.items()}
        data["yardstick"] = self.host.samples
        if self.traced:
            data["rows"] = self.recorder.rows
            data["edges"] = self.recorder.edges
            data["spans"] = [s for s in self.recorder.spans if s is not None]
        with open(self.directory / WORKER_FILE, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    def read(self) -> dict:
        with open(self.directory / WORKER_FILE, encoding="utf-8") as handle:
            return json.load(handle)


class Driver:
    """Open-loop and saturating load, result checks and accounting.

    Per request the driver keeps four timestamps and its phase; payloads
    and futures are dropped once the response is checked."""

    def __init__(self, gateway, bank, first_id: int):
        self.gateway = gateway
        self.bank = bank
        self.first_id = first_id
        self.due, self.submit_start, self.submit_end, self.observed = (
            [], [], [], []
        )
        #: 1 for a steady-phase request, 0 for a burst-phase one.
        self.steady_flag = bytearray()
        #: 1 once a request completed with the exact result.
        self.served = bytearray()
        self.steady_windows: list = []
        self.burst_completed = 0
        self.burst_s = 0.0
        self.outstanding = 0
        self.idle = asyncio.Event()
        self.idle.set()
        self.failed = self.rejected = self.completed = 0
        self.wrong = 0
        #: Usage of the first PREFIX_REQUESTS steady requests, by steady index.
        self.prefix: dict = {}
        self.window = None
        self.last_observed = 0.0
        #: Pending tenant order per phase (burst, steady).
        self.order = ([], [])

    def submit(self, due: float, rng, steady: bool) -> None:
        tenant = self._next_tenant(rng, steady)
        name, params, matrix, _ = self.bank[tenant]
        x = rng.integers(0, 8, size=params["N"]).astype(np.float32)
        start = _now()
        future = self.gateway.submit_nowait(
            name, _gemv_source(), params,
            {"A": matrix, "x": x, "y": np.zeros(params["M"], np.float32)},
        )
        end = _now()
        self.due.append(due)
        self.submit_start.append(start)
        self.submit_end.append(end)
        self.observed.append(float("nan"))
        self.steady_flag.append(steady)
        self.served.append(0)
        prefix_slot = len(self.prefix) if steady and len(self.prefix) < PREFIX_REQUESTS else None
        if prefix_slot is not None:
            self.prefix[prefix_slot] = None
        self.outstanding += 1
        self.idle.clear()
        future.add_done_callback(
            functools.partial(self._done, len(self.due) - 1, prefix_slot, tenant, x)
        )

    def _next_tenant(self, rng, steady: bool) -> int:
        """Tenants in seeded order, each once per block of ``TENANTS``
        requests, so every seed sees the same kernel mix."""
        order = self.order[steady]
        if not order:
            order.extend(int(t) for t in rng.permutation(TENANTS))
        return order.pop()

    def _done(self, index: int, prefix_slot, tenant: int, x, future) -> None:
        now = _now()
        response = future.result()
        self.observed[index] = now
        self.last_observed = now
        if response.status == "completed":
            expected = gemv_expected(self.bank[tenant][2], x)
            if np.array_equal(response.result["y"], expected):
                self.completed += 1
                self.served[index] = 1
            else:
                self.wrong += 1
        elif response.status == "rejected":
            self.rejected += 1
        else:
            self.failed += 1
        if prefix_slot is not None and response.status == "completed":
            usage = response.usage
            self.prefix[prefix_slot] = (
                tenant, tuple(usage[k] for k in sorted(usage)),
                usage, response.result["y"].tobytes(),
            )
        self.outstanding -= 1
        if self.window is not None:
            self.window.release()
        if self.outstanding == 0:
            self.idle.set()

    async def steady(self, seconds: float, rng) -> None:
        """Poisson arrivals at RATE_RPS for *seconds*, then wait until
        every request of the phase has its response."""
        start = _now() + 0.01
        due = start
        end = start + seconds
        while True:
            due += rng.exponential(1.0 / RATE_RPS)
            if due >= end:
                break
            delay = due - _now()
            if delay > 0:
                await asyncio.sleep(delay)
            self.submit(due, rng, steady=True)
        await self.idle.wait()
        self.steady_windows.append((start, _now()))

    async def burst(self, count: int, rng) -> None:
        """Serve *count* requests, keeping BURST_WINDOW of them in flight."""
        self.window = asyncio.Semaphore(BURST_WINDOW)
        completed0 = self.completed
        start = _now()
        for _ in range(count):
            await self.window.acquire()
            self.submit(_now(), rng, steady=False)
        await self.idle.wait()
        self.window = None
        self.burst_completed += self.completed - completed0
        self.burst_s += self.last_observed - start

    async def run(self, seconds: float, steady_rng, burst_rng, host) -> None:
        """``CYCLES`` rounds of a steady phase then a burst phase, so both
        sample the machine at several points of the run.  Each phase has
        its own random stream, so the steady requests do not depend on
        how many burst requests fitted in.  The host's speed is probed
        after each phase, while the pool is idle."""
        per_cycle = seconds / CYCLES
        burst = round(BURST_PER_SECOND * per_cycle * (1 - STEADY_SHARE))
        for _ in range(CYCLES):
            await self.steady(per_cycle * STEADY_SHARE, steady_rng)
            host.probe()
            await self.burst(burst, burst_rng)
            host.probe()


def _gemv_source():
    from repro.trace.scenarios import GEMV_SOURCE

    return GEMV_SOURCE


async def _session(seed, seconds, probe, host):
    from repro.compiler.cache import KernelCompileCache
    from repro.compiler.driver import TdoCimCompiler
    from repro.compiler.options import CompileOptions
    from repro.gateway.server import AsyncGateway, GatewayConfig

    np_rng = np.random.default_rng(seed)
    bank = make_tenants(
        random.Random(seed), np_rng,
        TdoCimCompiler(CompileOptions(), cache=KernelCompileCache()),
    )
    OUT_DIR.mkdir(exist_ok=True)
    setups, warm_ok = [], True
    gateway = None
    for index in range(SETUPS):
        probe.directory = Path(tempfile.mkdtemp(prefix="gateway-", dir=OUT_DIR))
        start = _now()
        gateway = AsyncGateway(GatewayConfig(num_workers=1))
        await gateway.start()
        warm = []
        for name, params, matrix, _ in bank:
            x = np.ones(params["N"], np.float32)
            warm.append((gateway.submit_nowait(
                name, _gemv_source(), params,
                {"A": matrix, "x": x, "y": np.zeros(params["M"], np.float32)},
            ), matrix, x))
        for future, matrix, x in warm:
            response = await future
            warm_ok &= response.status == "completed" and np.array_equal(
                response.result["y"], gemv_expected(matrix, x))
        setups.append(_now() - start)
        host.probe()
        if index < SETUPS - 1:
            await gateway.drain()
            shutil.rmtree(probe.directory, ignore_errors=True)
    host.end_setup()
    probe.recorder.reset()
    try:
        driver = Driver(gateway, bank, first_id=len(bank) + 1)
        await driver.run(seconds, np_rng, np.random.default_rng([seed, 1]), host)
    finally:
        await gateway.drain()
    worker = probe.read()
    shutil.rmtree(probe.directory, ignore_errors=True)
    usages = gateway.ledger.all_usages()
    ids = [u.request_id for u in usages]
    checks = {
        "warm_up_correct": warm_ok,
        "outputs_exact": driver.wrong == 0,
        "all_completed": driver.failed + driver.rejected == 0,
        "partition": all(gateway.verify_partition().values()),
        "exactly_once_billing": len(ids) == len(set(ids))
        and len(ids) == driver.completed + driver.wrong + len(bank),
    }
    return dict(
        setups=setups, host=host, driver=driver, worker=worker, checks=checks,
        cache=(gateway.metrics.compile_cache_hits, gateway.metrics.compile_cache_misses),
    )


def measure(seed: int, seconds: float, traced: bool) -> Outcome:
    """Set up ``SETUPS`` gateways, then run the steady and burst phases
    on the last one for *seconds* in total."""
    saved: list = []
    probe = WorkerProbe(traced)
    host = HostSpeed()
    try:
        probe.install(saved)
        result = asyncio.run(_session(seed, seconds, probe, host))
    finally:
        spans.restore(saved)
    out = _outcome(result)
    if traced:
        _traced_layers(out, result["driver"], result["worker"], probe.recorder)
        out.spans = probe.recorder.spans + result["worker"]["spans"]
    return out


def _outcome(result: dict) -> Outcome:
    driver: Driver = result["driver"]
    worker = result["worker"]
    warm = TENANTS
    out = Outcome(host=result["host"], setups=result["setups"])
    # Both processes set the figures, and each runs on its own virtual
    # CPU: the slowdown is the median over both processes' probes.
    out.host.samples.extend(worker["yardstick"])
    out.attempted = len(driver.due)
    out.failed = driver.failed + driver.rejected + driver.wrong
    out.checks = result["checks"]
    steady = [i for i, flag in enumerate(driver.steady_flag) if flag]
    n = len(steady)
    # Latency of the steady requests that were served; one that failed,
    # was rejected or came back wrong misses the objective instead.
    latencies_ms = [
        (driver.observed[i] - driver.due[i]) * 1e3 for i in steady if driver.served[i]
    ]
    misses = n - sum(1 for value in latencies_ms if value <= SLO_MS)
    digest = Digest()
    service_us, energy_nj, energy_gain, edp_gain = [], [], [], []
    counts = dict.fromkeys(USAGE_COUNTS.values(), 0)
    for index in sorted(driver.prefix):
        if driver.prefix[index] is None:    # failed: counted in `failed`
            continue
        tenant, fields, usage, result_bytes = driver.prefix[index]
        digest.add(index, tenant, *fields, result_bytes)
        energy = usage["host_energy_j"] + usage["offload_energy_j"] + usage["accelerator_energy_j"]
        host = driver.bank[tenant][3]
        service_us.append(usage["service_s"] * 1e6)
        energy_nj.append(energy * 1e9)
        energy_gain.append(host.energy_j / energy)
        edp_gain.append(host.energy_j * host.time_s / (energy * usage["service_s"]))
        for field, metric in USAGE_COUNTS.items():
            counts[metric] += usage[field]
    out.digest = digest.hexdigest()
    out.e2e = {
        "setup_s": statistics.median(result["setups"]),
        "throughput_rps": driver.burst_completed / driver.burst_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "peak_rss_mb": peak_rss_mb(),
        "compile_ms_p50": percentile(worker["compile"][warm:], 50) * 1e3,
        "simulate_ms_p50": percentile(worker["dispatch"][warm:], 50) * 1e3,
        "sim_energy_gain_geomean": geometric_mean(energy_gain),
        "sim_edp_gain_geomean": geometric_mean(edp_gain),
        "sim_latency_p99_us": percentile(service_us, 99),
        "sim_energy_per_request_nj": statistics.fmean(energy_nj),
    }
    out.extra = {
        "failed_fraction": (out.failed / out.attempted, "ratio"),
        "latency_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "latency_p99_ms": (percentile(latencies_ms, 99), "ms"),
        "slo_miss_fraction": (misses / n, "ratio"),
        "steady_rate_rps": (RATE_RPS, "1/s"),
        "slo_limit_ms": (SLO_MS, "ms"),
        "steady_requests": (n, "count"),
        "burst_requests": (out.attempted - n, "count"),
    }
    hits, lookups = result["cache"][0], sum(result["cache"])
    out.layers = {
        "compiler.cache_hit_ratio": hits / lookups,
        "compiler.cache_lookups": lookups / (out.attempted + warm),
        "worker.serve_one_growth": decile_growth(worker["serve"][warm:]),
    }
    out.layers.update({name: total / len(driver.prefix) for name, total in counts.items()})
    return out


def _traced_layers(out, driver, worker, recorder) -> None:
    """Per-request timeline of the steady phase, from due time to the
    moment the driver saw the response:

    lag -> submit -> queue wait -> encode -> IPC -> worker decode ->
    serve_one (split into the worker's layers) -> worker encode -> IPC ->
    decode -> (unattributed: gaps between these, future resolution)."""
    first = driver.first_id
    steady = [i for i, flag in enumerate(driver.steady_flag) if flag]
    wanted = {first + i for i in steady}
    n = len(steady)

    def by_id(edges):
        return {rid: (start, end) for rid, start, end in edges if rid in wanted}

    p_encode = by_id(recorder.edges["wire.encode"])
    p_decode = by_id(recorder.edges["wire.decode"])
    w_decode = by_id(worker["edges"]["wire.decode"])
    w_encode = by_id(worker["edges"]["wire.encode"])
    rows = {row[0]: row for row in worker["rows"] if row[0] is not None}
    worker_layers = (
        layers.COMPILER_LAYERS + layers.SIMULATOR_LAYERS + layers.SERVE_LAYERS
        + ("worker.serve_one",)
    )
    seg = dict.fromkeys(
        ("loadgen.lag", "gateway.submit", "gateway.queue_wait", "wire.encode",
         "gateway.ipc", "wire.decode", "unattributed"), 0.0)
    inner = dict.fromkeys(worker_layers, 0.0)
    total = serve_total = busy = 0.0
    count = 0
    for index in steady:
        rid = first + index
        if not all(rid in t for t in (p_encode, p_decode, w_decode, w_encode, rows)):
            continue
        count += 1
        pe, pd, wd, we = p_encode[rid], p_decode[rid], w_decode[rid], w_encode[rid]
        _, sv_start, sv_end, row = rows[rid]
        ss, se = driver.submit_start[index], driver.submit_end[index]
        if pe[0] < se:      # dispatched inside submit_nowait: worker was idle
            chain = (("gateway.submit", pe[0]), ("wire.encode", pe[1]),
                     ("gateway.submit", se))
        else:               # waited in the gateway's queue for the worker
            chain = (("gateway.submit", se), ("gateway.queue_wait", pe[0]),
                     ("wire.encode", pe[1]))
        chain = (
            (("loadgen.lag", ss),) + chain + (
                ("gateway.ipc", wd[0]), ("wire.decode", wd[1]),
                ("unattributed", sv_start), ("worker.serve_one", sv_end),
                ("unattributed", we[0]), ("wire.encode", we[1]),
                ("gateway.ipc", pd[0]), ("wire.decode", pd[1]),
                ("unattributed", driver.observed[index]),
            )
        )
        # Consecutive boundaries tile [due, observed]; clamping keeps the
        # segments non-negative if two processes' stamps interleave.
        previous = driver.due[index]
        for name, boundary in chain:
            boundary = max(boundary, previous)
            if name == "worker.serve_one":
                served = boundary - previous
                for layer, value in row.items():
                    inner[layer] = inner.get(layer, 0.0) + value
                seg["unattributed"] += served - sum(row.values())
                serve_total += served
            else:
                seg[name] += boundary - previous
            previous = boundary
        busy += we[1] - wd[0]
        total += previous - driver.due[index]
    ms = 1e3 / count
    out.ledger = [(name, seg[name] * ms) for name in seg if name != "unattributed"]
    out.ledger += [(name, value * ms) for name, value in inner.items()]
    out.ledger.append(("unattributed", seg["unattributed"] * ms))
    out.ledger_total_ms = total * ms
    out.notes.append(
        f"ledger covers {count} of {n} steady-phase requests; the worker's "
        "layers are self times inside serve_one"
    )
    us = ms * 1e3
    for name in layers.COMPILER_LAYERS + layers.SIMULATOR_LAYERS:
        out.layers[layers.metric_name(name, "ms")] = inner[name] * ms
    for name in layers.SERVE_LAYERS:
        out.layers[layers.metric_name(name, "us")] = inner[name] * us
    out.layers["serve.metrics_us"] += out.layers["serve.metrics_snapshot_us"]
    out.layers.update({
        "gateway.submit_us": seg["gateway.submit"] * us,
        "wire.encode_us": seg["wire.encode"] * us,
        "wire.decode_us": seg["wire.decode"] * us,
        "gateway.queue_wait_ms": seg["gateway.queue_wait"] * ms,
        "gateway.ipc_ms": seg["gateway.ipc"] * ms,
        "loadgen.lag_ms": seg["loadgen.lag"] * ms,
        "worker.serve_one_us": serve_total * us,
        "worker.utilization": busy / sum(end - start for start, end in driver.steady_windows),
    })
