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

The worker talks to the gateway over two simplex pipes, one per
direction (:class:`Channel`): it blocks reading the next message from
its request pipe, serves it, and writes the response frame
(:mod:`repro.gateway.wire`) to its response pipe before reading again.
Each pipe has exactly one writer, so no cross-process lock guards it,
and a kill can land at any instant without wedging anyone else: the
gateway sees the death as end-of-file on the response pipe.  The worker
honours the deterministic fault-injection markers: ``die-before-dispatch``
exits the process before any work happens, ``die-mid-request`` performs
the full dispatch and exits before the response leaves the process (so
the computed outputs and the device's physical ledgers are genuinely
lost, exactly like a machine kill).  Crash recovery and compensation are
the gateway's job (:mod:`repro.gateway.server`).
"""

from __future__ import annotations

import json
import os
import struct
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

#: Message kinds, gateway -> worker.
REQUEST_FRAME = 1
DRAIN_FRAME = 2

#: Message kinds, worker -> gateway.
RESPONSE_FRAME = 3
DRAINED_FRAME = 4
DEAD_LETTER_FRAME = 5

#: Every pipe message: its kind, then its body length, then the body.
_MESSAGE = struct.Struct("<BQ")
#: Most bytes taken from a pipe by one read: the default Linux pipe
#: capacity.  A much larger read size costs a large allocation (an
#: ``mmap``) on every read, which is several times the read itself.
_READ_CHUNK = 1 << 16


class Channel:
    """One end of a simplex pipe carrying ``(kind, body)`` messages.

    Wraps a :func:`multiprocessing.Pipe` connection for its file
    descriptor, which reaches the worker under both ``fork`` and
    ``spawn``; the messages are framed here (:data:`_MESSAGE`), not by
    the connection.  :meth:`put` blocks until the whole message is in the
    pipe.  The worker reads its requests with the blocking :meth:`get`;
    the gateway reads responses from its event loop with
    :meth:`read_messages` on a non-blocking descriptor.
    """

    def __init__(self, connection):
        self.connection = connection
        #: Bytes read but not yet returned as a whole message.
        self._buffer = bytearray()

    def fileno(self) -> int:
        return self.connection.fileno()

    def put(self, kind: int, body: bytes = b"") -> None:
        """Write one message; ``OSError`` (``BrokenPipeError``) once the
        reader is gone."""
        view = memoryview(_MESSAGE.pack(kind, len(body)) + body)
        fd = self.fileno()
        while view:
            view = view[os.write(fd, view):]

    def get(self) -> tuple[int, bytes]:
        """Block until one whole message has arrived; ``EOFError`` once
        the writer is gone."""
        kind, size = _MESSAGE.unpack(self._read_exactly(_MESSAGE.size))
        return kind, self._read_exactly(size)

    def empty(self) -> bool:
        """No message is waiting to be read."""
        return not self.connection.poll()

    def read_messages(self) -> list[tuple[int, bytes]]:
        """Take what the non-blocking pipe holds and return the whole
        messages received so far (a partial one stays buffered);
        ``EOFError`` once the writer is gone and everything was read."""
        try:
            chunk = os.read(self.fileno(), _READ_CHUNK)
        except BlockingIOError:
            return []
        if not chunk:
            raise EOFError("pipe closed by its writer")
        buffer = self._buffer
        buffer += chunk
        messages = []
        start = 0
        while len(buffer) - start >= _MESSAGE.size:
            kind, size = _MESSAGE.unpack_from(buffer, start)
            end = start + _MESSAGE.size + size
            if end > len(buffer):
                break
            messages.append((kind, bytes(buffer[start + _MESSAGE.size:end])))
            start = end
        del buffer[:start]
        return messages

    def close(self) -> None:
        self.connection.close()

    def _read_exactly(self, size: int) -> bytes:
        chunks = []
        fd = self.fileno()
        while size:
            chunk = os.read(fd, min(size, _READ_CHUNK))
            if not chunk:
                raise EOFError("pipe closed by its writer")
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)


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


def worker_main(worker_id: int, config: dict, request_queue, response_queue) -> None:
    """Pool worker entry point (top-level so it spawns on any platform).

    *request_queue* and *response_queue* are the worker's ends of its two
    pipes (:class:`Channel`).  Serves one request at a time until a drain
    message arrives or the gateway closes the request pipe, shipping each
    response together with the worker-cumulative physical snapshot (the
    accounting currency that survives the worker's death — see
    :mod:`repro.gateway.server`).  The drain message is answered with the
    worker's authoritative physical totals, then the worker exits cleanly.
    """
    server = build_worker_server(config)
    physical = _PhysicalTotals()
    try:
        while True:
            try:
                kind, body = request_queue.get()
            except EOFError:
                break  # the gateway is gone: nothing left to answer
            if kind == DRAIN_FRAME:
                totals = json.dumps(physical.authoritative()).encode()
                response_queue.put(DRAINED_FRAME, totals)
                break
            try:
                request = GatewayRequest.from_json(body)
            except WireFormatError as exc:
                # A frame that decodes this badly has no request id to
                # answer for; report it as a dead letter and move on.
                response_queue.put(DEAD_LETTER_FRAME, str(exc).encode())
                continue
            if request.fault == "die-before-dispatch":
                os._exit(FAULT_EXIT_CODE)
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
                os._exit(FAULT_EXIT_CODE)
            response.physical = physical.snapshot()
            payload = response.to_json()
            if request.fault == "corrupt-frame":
                # Byzantine worker: the device worked, but the frame that
                # leaves the process is garbage (truncated).  The gateway
                # must fail only this request with a typed reason and
                # kill this process — its in-process ledgers now hold
                # work no decodable snapshot will ever account for, so
                # letting it live would break the partition.
                payload = payload[: len(payload) // 2]
            response_queue.put(RESPONSE_FRAME, payload)
    finally:
        server.shutdown()
