"""The gateway's pool worker: one process, one private emulated device.

Each worker owns a complete private serving stack — a
:class:`~repro.system.system.CimSystem`, an
:class:`~repro.codegen.executor.OffloadExecutor`, a compiler bound to the
**shared on-disk** :class:`~repro.compiler.cache.KernelCompileCache`
(flock-guarded, so concurrent workers race safely), and a
:class:`~repro.serve.server.CimServer` configured with
``max_batch_size=1`` — and serves each request as a batch of one through
:class:`~repro.serve.dispatch.LeaseExecutor`.  That is *literally* the
reference server's dispatch path, which is what makes the wall-clock
gateway's responses bit-identical to the ``VirtualClock`` mode: the only
thing the process pool changes is *when* requests run, never *what* they
compute or bill.

Determinism inside one worker comes from the same invariants the serving
tests lean on: leases are scrubbed (no cross-request crossbar residency),
the runtime releases every device buffer between requests (identical
programs re-allocate at identical CMA addresses), and usage is measured
as per-request ledger deltas — so a request's usage record is a pure
function of the request, independent of which worker serves it or what
ran before.

The worker speaks the :mod:`repro.gateway.wire` JSON format over a pair
of ``multiprocessing`` queues and honours the deterministic
fault-injection markers: ``die-before-dispatch`` exits the process before
any work happens, ``die-mid-request`` performs the full dispatch and
exits before the response leaves the process (so the computed outputs and
the device's physical ledgers are genuinely lost, exactly like a machine
kill).  Crash recovery and compensation are the gateway's job
(:mod:`repro.gateway.server`).
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.gateway.wire import (
    FAULT_EXIT_CODE,
    GatewayRequest,
    GatewayResponse,
    USAGE_FIELDS,
    WireFormatError,
    slow_fault_delay_s,
)
from repro.hw.stats import ExactSum

#: Queue frames (gateway -> worker).
REQUEST_FRAME = "request"
DRAIN_FRAME = "drain"

#: Queue frames (worker -> gateway).
RESPONSE_FRAME = "response"
DRAINED_FRAME = "drained"


class _PhysicalTotals:
    """Running physical ledger of one worker's accelerator.

    :func:`serve_one` resets the accelerator before every request, so its
    ``completed_runs`` only ever hold the request just served; the worker
    folds those runs into these worker-lifetime counters after each
    request.  Memory and snapshot cost stay flat no matter how many
    requests the worker serves.  The energy is also accumulated exactly
    (:class:`~repro.hw.stats.ExactSum`), so the drain-time total equals
    :func:`math.fsum` over every run's energy (order-independent,
    correctly rounded), matching the exactness contract of
    :meth:`~repro.serve.accounting.AccountingLedger.verify_partition`.
    """

    def __init__(self) -> None:
        self.exact_energy_j = ExactSum()
        self.energy_j = 0.0           # running sum (snapshot currency)
        self.latency_s = 0.0
        self.cell_writes = 0
        self.write_ops = 0
        self.gemv_count = 0
        self.macs = 0
        self.dma_bytes = 0

    def fold(self, accelerator) -> None:
        """Absorb the runs of the request just served."""
        for run in accelerator.completed_runs:
            self.exact_energy_j.add(run.energy_j)
            self.energy_j += run.energy_j
            self.latency_s += run.latency_s
            self.cell_writes += run.crossbar_cell_writes
            self.write_ops += run.crossbar_write_ops
            self.gemv_count += run.gemv_count
            self.macs += run.macs
            self.dma_bytes += run.dma_bytes

    def snapshot(self) -> dict[str, float]:
        return {
            "energy_j": self.energy_j,
            "latency_s": self.latency_s,
            "cell_writes": self.cell_writes,
            "write_ops": self.write_ops,
            "gemv_count": self.gemv_count,
            "macs": self.macs,
            "dma_bytes": self.dma_bytes,
        }

    def authoritative(self) -> dict[str, float]:
        """Drain-time totals with the energy summed exactly."""
        totals = self.snapshot()
        totals["energy_j"] = self.exact_energy_j.value
        return totals


def build_worker_server(config: dict):
    """Build one worker's private serving stack from the gateway's wire
    config (a plain dict, so it pickles identically under ``fork`` and
    ``spawn``).  Shared between real pool workers and the in-process
    differential reference."""
    from repro.compiler.cache import KernelCompileCache
    from repro.serve.server import CimServer, ServerConfig
    from repro.trace.schema import decode_compile_options

    cache_dir = config.get("cache_dir")
    compile_cache = KernelCompileCache(disk_dir=cache_dir)
    server_config = ServerConfig(
        num_tiles=int(config.get("num_tiles", 1)),
        # Workers serve strictly one request per lease: the wall-clock
        # pool parallelises across processes, never inside one device.
        max_batch_size=1,
        batch_window_s=0.0,
        scrub_leases=bool(config.get("scrub_leases", True)),
        compile_options=decode_compile_options(
            dict(config.get("compile_options", {}))
        ),
        crossbar_rows=config.get("crossbar_rows"),
        crossbar_cols=config.get("crossbar_cols"),
        crossbar_mode=config.get("crossbar_mode", "ideal"),
    )
    return CimServer(server_config, compile_cache=compile_cache)


def serve_one(server, request: GatewayRequest, worker_id: int) -> GatewayResponse:
    """Serve one wire request on *server* as a batch of one.

    Never raises: compile errors, bad payloads and execution errors all
    resolve to a ``failed`` response (one bad request must not kill the
    worker).  Usage, lease housekeeping and compile-cache deltas are
    measured around the call so the gateway can rebuild the exact
    accounting the reference server would have produced.

    Measurement isolation: the system's stats ledgers and the runtime's
    buffer-handle numbering are reset before every request, so the
    measured deltas (and any handle quoted in an error message) are exact
    values — a pure function of the request, bit-identical no matter
    which worker serves it, in what order, or under which clock.  Without
    the reset, deltas are differences against a cumulative float ledger
    and round differently depending on how much the server served before.
    The caller must fold ``accelerator.completed_runs`` (via
    :class:`_PhysicalTotals`) *before* the next call — the reset clears
    them (and the accelerator's running totals with them).
    """
    from repro.serve.request import RequestStatus

    server.system.reset_stats()
    server.system.runtime.reset_handle_counter()
    ledger = server.ledger
    housekeeping0 = len(ledger.housekeeping_energy_j_records)
    hits0 = server.compile_cache.hits
    misses0 = server.compile_cache.misses
    tenant_account = ledger.account(request.tenant)
    usages0 = len(tenant_account.usages)

    status = "failed"
    reason: Optional[str] = None
    result = {}
    try:
        handle = server.submit(
            request.tenant, request.source, request.params, request.arrays
        )
        server.drain()
        if handle.status is RequestStatus.COMPLETED:
            status = "completed"
            result = handle.result()
        elif handle.status is RequestStatus.REJECTED:
            status = "rejected"
            reason = handle.reject_reason
        else:
            reason = handle.reject_reason
    except Exception as exc:  # compile error, malformed request, ...
        reason = f"{type(exc).__name__}: {exc}"

    usage: dict[str, float] = {}
    if len(tenant_account.usages) > usages0:
        record = tenant_account.usages[-1]
        usage = {name: getattr(record, name) for name in USAGE_FIELDS}
    housekeeping = ledger.housekeeping_energy_j_records[housekeeping0:]
    return GatewayResponse(
        request_id=request.request_id,
        tenant=request.tenant,
        status=status,
        worker_id=worker_id,
        attempt=request.attempt,
        reason=reason,
        result=result,
        usage=usage,
        housekeeping_energy_j=list(housekeeping),
        compile_hits=server.compile_cache.hits - hits0,
        compile_misses=server.compile_cache.misses - misses0,
    )


def _crash(response_queue) -> None:
    """Abrupt process death for the crash fault markers — but only after
    the response queue's feeder thread has flushed.  ``os._exit`` while
    the feeder holds the queue's *shared* write lock would leave that
    cross-process lock permanently held, wedging every surviving worker's
    next ``put``; close + join guarantees the feeder is done before the
    process dies, without shipping anything new."""
    response_queue.close()
    response_queue.join_thread()
    os._exit(FAULT_EXIT_CODE)


def worker_main(worker_id: int, config: dict, request_queue, response_queue) -> None:
    """Pool worker entry point (top-level so it spawns on any platform).

    Loops on the request queue until a drain frame arrives, serving one
    request at a time and shipping each response together with the
    worker-cumulative physical snapshot (the accounting currency that
    survives the worker's death — see :mod:`repro.gateway.server`).  The
    drain frame is answered with the worker's authoritative physical
    totals, then the worker exits cleanly.
    """
    server = build_worker_server(config)
    physical = _PhysicalTotals()
    try:
        while True:
            frame = request_queue.get()
            kind = frame[0]
            if kind == DRAIN_FRAME:
                response_queue.put(
                    (DRAINED_FRAME, worker_id, physical.authoritative())
                )
                break
            try:
                request = GatewayRequest.from_json(frame[1])
            except WireFormatError as exc:
                # A frame that decodes this badly has no request id to
                # answer for; report it as a dead letter and move on.
                response_queue.put(("dead-letter", worker_id, str(exc)))
                continue
            if request.fault == "die-before-dispatch":
                _crash(response_queue)
            if request.fault == "hang":
                # Wedge forever without doing any work: the process stays
                # alive but never answers, which is exactly the shape the
                # gateway's hang watchdog must detect and SIGKILL.  No
                # work happened, so the zero-work crash compensation the
                # gateway records is physically exact.
                while True:
                    time.sleep(3600.0)
            slow_s = slow_fault_delay_s(request.fault)
            if slow_s is not None:
                # Stall, then serve normally: the request loses wall time
                # (deadline pressure) but no physical work.
                time.sleep(slow_s)
            response = serve_one(server, request, worker_id)
            physical.fold(server.system.accelerator)
            if request.fault == "die-mid-request":
                # The device physically worked (ledgers and outputs exist
                # in this process) and then the process dies before the
                # response escapes: the work is genuinely lost, which is
                # exactly the window the gateway's crash recovery and
                # FaultCompensation accounting must cover.
                _crash(response_queue)
            response.physical = physical.snapshot()
            payload = response.to_json()
            if request.fault == "corrupt-frame":
                # Byzantine worker: the device worked, but the frame that
                # leaves the process is garbage (truncated JSON).  The
                # gateway must fail only this request with a typed reason
                # and kill this process — its in-process ledgers now hold
                # work no decodable snapshot will ever account for, so
                # letting it live would break the partition.
                payload = payload[: len(payload) // 2]
            response_queue.put((RESPONSE_FRAME, worker_id, payload))
    finally:
        server.shutdown()
