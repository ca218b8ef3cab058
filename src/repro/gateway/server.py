"""The wall-clock serving gateway: asyncio front-end, process-pool back-end.

:class:`AsyncGateway` is the repo's first *real-concurrency* serving mode.
The simulated tiers (:class:`~repro.serve.server.CimServer`,
:class:`~repro.fleet.server.FleetServer`) advance a ``VirtualClock``
through a deterministic event loop; the gateway instead accepts typed
requests on an ``asyncio`` loop under a :class:`~repro.serve.clock.WallClock`
and dispatches them to a pool of worker *processes*
(:mod:`repro.gateway.worker`), each owning a private emulated device and
sharing one flock-guarded on-disk
:class:`~repro.compiler.cache.KernelCompileCache`.

Pool architecture (deliberately not ``concurrent.futures`` — a
``ProcessPoolExecutor`` declares the whole pool broken when one worker
dies, and surviving a worker death is this subsystem's headline fault
model):

* two simplex pipes per worker (:class:`~repro.gateway.worker.Channel`),
  and no helper threads: the event-loop thread writes each request frame
  straight into the worker's request pipe, and reads responses from the
  worker's response pipe when the loop reports it readable
  (``loop.add_reader``), so all gateway state is mutated from the loop
  thread only;
* each request is encoded once, when it is admitted (again only on a
  retry), and a response frees its worker and sends the next frame
  *before* its billing, metrics and future resolution run, so the parent's
  bookkeeping overlaps the worker's next request instead of delaying it;
* the parent holds only its own end of each pipe, so a dead worker
  surfaces as end-of-file on its response pipe (or a broken pipe on the
  next request write): its in-flight request is compensated
  (:class:`~repro.serve.accounting.FaultCompensation`) and retried on a
  surviving worker with its fault marker stripped — exactly-once billing,
  at-least-once execution;
* at most one request is in flight per worker, so a dead worker strands
  at most one request.

The resilience layer turns every stall into a bounded, compensated,
retried event:

* **Deadlines** — a request may carry an absolute gateway-clock
  ``deadline_s``; the gateway sheds it with status ``deadline-exceeded``
  if the deadline passes before dispatch, and fails it at expiry if it
  is in flight (the worker's eventual late work is absorbed as a
  measured :class:`~repro.serve.accounting.FaultCompensation`, never
  billed).
* **Hang detection** — a per-flight watchdog declares a worker wedged
  once it exceeds ``hang_timeout_s`` on one request, SIGKILLs it,
  compensates the lost attempt and retries on a survivor — exactly the
  crash contract, extended to silence.
* **Self-healing pool** — dead or killed workers are respawned (each
  respawn is a *new* worker id, so every incarnation keeps its own
  partition-checked ledger) up to a per-slot budget with capped
  exponential backoff; a crash-looping slot is quarantined (the fleet
  tier's vocabulary); optional hot spares pre-spawn so capacity recovery
  is immediate.  With a respawn pending, "no surviving workers" is a
  transient state, not a reason to fail traffic.
* **Wall-clock admission** — per-tenant
  :class:`~repro.serve.admission.TenantQuota` (queue depth, wear and
  energy budgets against the gateway ledger) plus the global
  ``max_pending`` queue-depth shed.
* **Defensive decoding** — an undecodable response frame fails only
  its own request with a typed reason; the byzantine worker is killed
  (its unaccounted work dies with it, keeping the partition exact on its
  last good snapshot) and its slot respawns.

Accounting mirrors the simulated tiers: every response carries the
measured per-request usage, which the gateway records into an
:class:`~repro.serve.accounting.AccountingLedger` keyed by worker id
(= device id), and :meth:`AsyncGateway.verify_partition` reconciles the
bills against each worker's physical accelerator totals — the drain-time
authoritative totals for workers that survived, the last cumulative
snapshot a worker shipped for workers that died (its doomed attempt
shipped neither usage nor snapshot, so the partition stays exact).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.compiler.options import CompileOptions
from repro.gateway.wire import GatewayRequest, GatewayResponse, WireFormatError
from repro.gateway.worker import (
    DRAIN_FRAME,
    DRAINED_FRAME,
    REQUEST_FRAME,
    RESPONSE_FRAME,
    Channel,
    worker_main,
)
from repro.serve.accounting import AccountingLedger, FaultCompensation
from repro.serve.admission import TenantQuota
from repro.serve.clock import WallClock
from repro.serve.metrics import MetricsRegistry
from repro.trace.schema import encode_compile_options

#: Physical-totals keys shipped by workers (see worker._PhysicalTotals).
_PHYSICAL_ZERO = {
    "energy_j": 0.0,
    "latency_s": 0.0,
    "cell_writes": 0,
    "write_ops": 0,
    "gemv_count": 0,
    "macs": 0,
    "dma_bytes": 0,
}

#: How long drain() waits for a worker's authoritative totals (and for
#: stuck in-flight work) before escalating to a kill.
_DRAIN_TIMEOUT_S = 30.0


class GatewayError(RuntimeError):
    """Misuse of the gateway lifecycle (submit before start, after drain,
    or with an invalid configuration)."""


def partition_checks(
    ledger: AccountingLedger, totals_by_worker: Mapping[int, Mapping[str, float]]
) -> dict[str, bool]:
    """Exactly-once reconciliation of *ledger* against per-worker physical
    accelerator totals (the :class:`~repro.gateway.worker._PhysicalTotals`
    snapshot shape).  Integer counters compare by ``==``; energies via
    order-independent ``fsum`` to float precision — the same bar as
    :meth:`~repro.serve.accounting.AccountingLedger.verify_fleet_partition`."""
    checks: dict[str, bool] = {}
    for worker_id in sorted(totals_by_worker):
        totals = totals_by_worker[worker_id]
        usages = ledger.device_usages(worker_id)
        comps = ledger.device_compensations(worker_id)
        prefix = f"worker{worker_id}"
        checks[f"{prefix}.cell_writes"] = (
            sum(u.wear_bytes for u in usages) + sum(c.wear_bytes for c in comps)
            == totals["cell_writes"]
        )
        checks[f"{prefix}.write_ops"] = (
            sum(u.crossbar_write_ops for u in usages)
            + sum(c.crossbar_write_ops for c in comps)
            == totals["write_ops"]
        )
        checks[f"{prefix}.gemv_count"] = (
            sum(u.gemv_count for u in usages)
            + sum(c.gemv_count for c in comps)
            == totals["gemv_count"]
        )
        checks[f"{prefix}.macs"] = (
            sum(u.macs for u in usages) + sum(c.macs for c in comps)
            == totals["macs"]
        )
        checks[f"{prefix}.energy"] = math.isclose(
            math.fsum(
                [u.accelerator_energy_j for u in usages]
                + [c.accelerator_energy_j for c in comps]
            ),
            totals["energy_j"],
            rel_tol=1e-9,
            abs_tol=1e-18,
        )
    known = set(totals_by_worker)
    checks["no_orphan_records"] = all(
        u.device_id in known for u in ledger.all_usages()
    ) and all(c.device_id in known for c in ledger.compensations)
    checks["pool_wear_total"] = ledger.device_wear_bytes == sum(
        totals["cell_writes"] for totals in totals_by_worker.values()
    )
    checks["pool_energy_total"] = math.isclose(
        ledger.device_accelerator_energy_j,
        math.fsum(totals["energy_j"] for totals in totals_by_worker.values()),
        rel_tol=1e-9,
        abs_tol=1e-18,
    )
    return checks


@dataclass
class GatewayConfig:
    """Tuning knobs of one :class:`AsyncGateway`."""

    #: Worker processes (each one private emulated device).
    num_workers: int = 2
    #: CIM tiles inside each worker's device.
    num_tiles: int = 1
    #: Crossbar geometry/mode of the worker devices (None = Table I).
    crossbar_rows: Optional[int] = None
    crossbar_cols: Optional[int] = None
    crossbar_mode: str = "ideal"
    #: Compiler options of the worker compilers.
    compile_options: CompileOptions = field(default_factory=CompileOptions)
    #: Shared on-disk compile-cache directory (None = per-worker memory
    #: caches only; with a directory, workers share compilations).
    cache_dir: Optional[str] = None
    #: Admission backpressure: reject submissions once this many requests
    #: are queued (None = unbounded, the differential's configuration —
    #: rejections are load-dependent, so the diff runs without them).
    max_pending: Optional[int] = None
    #: Per-tenant admission quota for tenants without an explicit
    #: :meth:`AsyncGateway.set_quota` (None = per-tenant admission off).
    default_quota: Optional[TenantQuota] = None
    #: Execution attempts per request across worker deaths.
    max_attempts: int = 3
    #: Hang watchdog: a worker that spends longer than this on one
    #: request is declared wedged, SIGKILLed, compensated and its request
    #: retried on a survivor (None = watchdog off).
    hang_timeout_s: Optional[float] = None
    #: Self-healing: respawns allowed per worker slot (0 = off; a dead
    #: worker then shrinks the pool permanently, the pre-resilience
    #: behavior).  A slot that exhausts its budget is quarantined.
    max_respawns: int = 0
    #: Capped exponential respawn backoff: min(base * 2**(n-1), max).
    respawn_backoff_base_s: float = 0.05
    respawn_backoff_max_s: float = 1.0
    #: Hot spares: extra workers pre-spawned at start that idle outside
    #: the dispatch rotation and are promoted the moment an active
    #: worker dies — capacity recovery without waiting out a backoff.
    hot_spares: int = 0
    #: ``multiprocessing`` start method (None = fork where available).
    start_method: Optional[str] = None
    #: Scrub crossbar residency between requests inside each worker.
    scrub_leases: bool = True

    def worker_wire(self) -> dict:
        """The worker-process config as a plain picklable dict."""
        return {
            "num_tiles": self.num_tiles,
            "crossbar_rows": self.crossbar_rows,
            "crossbar_cols": self.crossbar_cols,
            "crossbar_mode": self.crossbar_mode,
            "compile_options": encode_compile_options(self.compile_options),
            "cache_dir": self.cache_dir,
            "scrub_leases": self.scrub_leases,
        }


@dataclass
class _Flight:
    """One submitted request in flight through the gateway."""

    request: GatewayRequest
    future: asyncio.Future
    submitted_s: float
    #: The request's wire frame, encoded at admission and again on retry.
    frame: bytes = b""
    dispatched_s: Optional[float] = None
    worker_id: Optional[int] = None
    #: The deadline expired while the request was in flight: its future
    #: already resolved ``deadline-exceeded``; the worker's eventual
    #: response is absorbed as a compensation, never billed.
    abandoned: bool = False

    def deadline_passed(self, now_s: float) -> bool:
        deadline_s = self.request.deadline_s
        return deadline_s is not None and now_s >= deadline_s


@dataclass
class _Slot:
    """Self-healing state of one position in the active pool.

    A slot outlives the worker processes that occupy it: every death of
    its current worker burns respawn budget, and a slot that crash-loops
    through its whole budget is quarantined — the fleet tier's
    backoff/quarantine vocabulary, applied to pool positions."""

    slot_id: int
    worker_id: int
    respawns: int = 0
    pending_respawn_s: Optional[float] = None
    #: The replacement goes to the spare pool (a spare was promoted into
    #: this slot already) instead of straight into the dispatch rotation.
    respawn_to_spare: bool = False
    quarantined: bool = False


class _Worker:
    """Gateway-side bookkeeping of one pool worker (one incarnation —
    a respawned slot gets a fresh ``_Worker`` with a fresh id)."""

    def __init__(self, worker_id: int, process, requests: Channel,
                 responses: Channel, slot_id=None, spare: bool = False):
        self.worker_id = worker_id
        self.process = process
        #: The gateway's ends of the worker's pipes.
        self.requests = requests
        self.responses = responses
        #: Active-pool slot this worker occupies (None while a spare).
        self.slot_id: Optional[int] = slot_id
        self.spare = spare
        self.dead = False
        self.served = 0
        self.busy_s = 0.0
        #: Last cumulative physical snapshot this worker shipped (the
        #: accounting currency that survives its death).
        self.last_physical: dict[str, float] = dict(_PHYSICAL_ZERO)
        #: Authoritative totals shipped on graceful drain (fsum-exact).
        self.drained_totals: Optional[dict[str, float]] = None
        self.drained_event: Optional[asyncio.Event] = None


class AsyncGateway:
    """Wall-clock serving gateway over a self-healing pool of device
    workers."""

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.config = config or GatewayConfig()
        if self.config.num_workers < 1:
            raise GatewayError("gateway needs at least one worker")
        if self.config.max_attempts < 1:
            raise GatewayError("max_attempts must be >= 1")
        if self.config.hang_timeout_s is not None and self.config.hang_timeout_s <= 0:
            raise GatewayError("hang_timeout_s must be positive (or None)")
        if self.config.max_respawns < 0 or self.config.hot_spares < 0:
            raise GatewayError("max_respawns and hot_spares cannot be negative")
        if (
            self.config.respawn_backoff_base_s < 0
            or self.config.respawn_backoff_max_s < 0
        ):
            raise GatewayError("respawn backoff times cannot be negative")
        self.clock = WallClock()
        self.metrics = MetricsRegistry()
        self.ledger = AccountingLedger(crossbar_size_bytes=0.0)
        self.dead_letters: list[str] = []
        self._workers: list[_Worker] = []
        self._slots: list[_Slot] = []
        self._spare_ids: deque[int] = deque()
        self._quotas: dict[str, TenantQuota] = {}
        self._idle: deque[int] = deque()
        self._pending: deque[_Flight] = deque()
        self._inflight: dict[int, _Flight] = {}
        self._seq = 0
        self._bill_counter = 0
        self._ctx = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._started = False
        self._draining = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncGateway":
        """Spawn the worker pool (actives + hot spares) and the monitor."""
        if self._started:
            raise GatewayError("gateway already started")
        import multiprocessing

        method = self.config.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(method)
        self._loop = asyncio.get_running_loop()
        for slot_id in range(self.config.num_workers):
            worker = self._spawn_worker(slot_id=slot_id)
            self._slots.append(_Slot(slot_id=slot_id, worker_id=worker.worker_id))
            self._idle.append(worker.worker_id)
        for _ in range(self.config.hot_spares):
            worker = self._spawn_worker(spare=True)
            self._spare_ids.append(worker.worker_id)
        self._monitor_task = self._loop.create_task(self._monitor())
        self._started = True
        return self

    def _spawn_worker(
        self, slot_id: Optional[int] = None, spare: bool = False
    ) -> _Worker:
        """Spawn one worker process on a fresh worker/device id and
        register its bookkeeping (shared by pool start and respawns)."""
        worker_id = len(self._workers)
        request_reader, request_writer = self._ctx.Pipe(duplex=False)
        response_reader, response_writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.config.worker_wire(), Channel(request_reader),
                  Channel(response_writer)),
            daemon=True,
            name=f"gateway-worker-{worker_id}",
        )
        process.start()
        # Drop the child's ends at once (before anything else forks), so
        # the worker is their only holder: its death is then end-of-file
        # on the response pipe and a broken pipe on the request pipe.
        request_reader.close()
        response_writer.close()
        worker = _Worker(worker_id, process, Channel(request_writer),
                         Channel(response_reader), slot_id=slot_id, spare=spare)
        worker.drained_event = asyncio.Event()
        os.set_blocking(worker.responses.fileno(), False)
        self._loop.add_reader(worker.responses.fileno(), self._on_readable, worker)
        self._workers.append(worker)
        self.metrics.observe_device_state(worker_id, "spare" if spare else "up")
        return worker

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            await self.drain()

    @property
    def alive_workers(self) -> list[int]:
        return [w.worker_id for w in self._workers if not w.dead]

    def _respawn_pending(self) -> bool:
        return any(slot.pending_respawn_s is not None for slot in self._slots)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Per-tenant wall-clock admission quota (same
        :class:`~repro.serve.admission.TenantQuota` vocabulary as the
        ``VirtualClock`` tiers)."""
        self._quotas[tenant] = quota

    def quota(self, tenant: str) -> Optional[TenantQuota]:
        return self._quotas.get(tenant, self.config.default_quota)

    def _tenant_pending(self, tenant: str) -> int:
        return sum(
            1 for flight in self._pending if flight.request.tenant == tenant
        )

    def _admission_reason(self, tenant: str) -> Optional[str]:
        """Why this submission must be rejected, or None to admit it."""
        if (
            self.config.max_pending is not None
            and len(self._pending) >= self.config.max_pending
        ):
            return (
                f"gateway backpressure: {len(self._pending)} requests "
                f"pending (max_pending={self.config.max_pending})"
            )
        quota = self.quota(tenant)
        if quota is None:
            return None
        depth = self._tenant_pending(tenant)
        if depth >= quota.max_queue_depth:
            return (
                f"tenant queue full ({depth}/{quota.max_queue_depth} "
                "requests pending)"
            )
        account = self.ledger.account(tenant)
        if (
            quota.wear_budget_bytes is not None
            and account.wear_bytes >= quota.wear_budget_bytes
        ):
            return (
                f"wear quota exhausted ({account.wear_bytes} B written "
                f">= budget {quota.wear_budget_bytes:.0f} B)"
            )
        if (
            quota.energy_budget_j is not None
            and account.energy_j >= quota.energy_budget_j
        ):
            return (
                f"energy quota exhausted ({account.energy_j:.3e} J "
                f">= budget {quota.energy_budget_j:.3e} J)"
            )
        return None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_nowait(
        self,
        tenant: str,
        source: str,
        params: Optional[Mapping[str, float]] = None,
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        fault: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> "asyncio.Future[GatewayResponse]":
        """Queue one request; returns a future resolving to its
        :class:`~repro.gateway.wire.GatewayResponse`.  Never raises for
        per-request problems — backpressure and quota breaches resolve
        the future with a ``rejected`` response, execution problems with
        a ``failed`` one, a missed ``deadline_s`` (absolute gateway-clock
        seconds) with a ``deadline-exceeded`` one."""
        if not self._started:
            raise GatewayError("gateway not started")
        if self._draining or self._closed:
            raise GatewayError("gateway is draining; admission is closed")
        self._seq += 1
        request = GatewayRequest(
            request_id=self._seq,
            tenant=tenant,
            source=source,
            params=dict(params or {}),
            arrays={name: np.asarray(value) for name, value in (arrays or {}).items()},
            fault=fault,
            deadline_s=deadline_s,
        )
        future = self._loop.create_future()
        self.metrics.observe_submit()
        now_s = self.clock.now_s
        reason = self._admission_reason(tenant)
        if reason is not None:
            self.metrics.observe_admission(False)
            self.ledger.record_rejection(tenant)
            response = GatewayResponse(
                request_id=request.request_id,
                tenant=tenant,
                status="rejected",
                worker_id=-1,
                reason=reason,
            )
            response.submitted_s = response.completed_s = now_s
            future.set_result(response)
            return future
        self.metrics.observe_admission(True)
        flight = _Flight(request, future, submitted_s=now_s)
        if not self.alive_workers and not self._respawn_pending():
            # The pool is gone for good: answer now instead of queueing a
            # request no worker will ever serve.
            self._resolve_failed(flight, "no surviving gateway workers")
            return future
        flight.frame = request.to_json()
        self._pending.append(flight)
        self._dispatch()
        return future

    async def submit(self, *args, **kwargs) -> GatewayResponse:
        return await self.submit_nowait(*args, **kwargs)

    # ------------------------------------------------------------------
    # Dispatch / responses (loop thread only)
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        now_s = self.clock.now_s
        while self._pending and self._idle:
            worker_id = self._idle.popleft()
            worker = self._workers[worker_id]
            if worker.dead:
                continue
            flight = self._pending.popleft()
            if flight.deadline_passed(now_s):
                # Shed before dispatch: the deadline has already passed,
                # so running the request would only waste a worker.
                self._idle.appendleft(worker_id)
                self._resolve_deadline(flight, shed=True)
                continue
            flight.worker_id = worker_id
            flight.dispatched_s = now_s
            self._inflight[worker_id] = flight
            try:
                worker.requests.put(REQUEST_FRAME, flight.frame)
            except OSError:
                # The worker died since it last answered: the same death
                # its response pipe's end-of-file will report.
                self._on_worker_death(worker)

    def _on_readable(self, worker: _Worker) -> None:
        """The worker's response pipe has bytes (or end-of-file)."""
        try:
            messages = worker.responses.read_messages()
        except EOFError:
            self._close_pipes(worker)
            if not worker.dead and worker.drained_totals is None:
                self._on_worker_death(worker)
            return
        for kind, body in messages:
            if kind == RESPONSE_FRAME:
                self._on_response(worker, body)
            elif kind == DRAINED_FRAME:
                worker.drained_totals = json.loads(body)
                worker.drained_event.set()
            else:  # dead letter: an undecodable frame with no request to answer
                self.dead_letters.append(body.decode("utf-8", "replace"))
                if not worker.dead:
                    self._idle.append(worker.worker_id)
                    self._dispatch()

    def _close_pipes(self, worker: _Worker) -> None:
        """Stop watching the worker's response pipe and close the
        gateway's ends of both pipes (idempotent)."""
        if worker.responses.connection.closed:
            return
        self._loop.remove_reader(worker.responses.fileno())
        worker.responses.close()
        worker.requests.close()

    def _on_response(self, worker: _Worker, payload: bytes) -> None:
        if worker.dead:
            # The worker wrote this frame and was then declared dead (the
            # hang watchdog killed it, say) before we read it.  Its
            # death already compensated and retried the flight, and its
            # accounting currency is the last snapshot it shipped
            # *before* we declared it dead — absorbing this late frame
            # (usage or physical totals) would double-count the work.
            self.metrics.observe_late_frame()
            return
        try:
            response = GatewayResponse.from_json(payload)
        except WireFormatError as exc:
            self._on_corrupt_frame(worker, exc)
            return
        worker.last_physical = dict(response.physical)
        flight = self._inflight.pop(worker.worker_id, None)
        if flight is None:
            return  # stale frame (should not happen: one in flight per worker)
        now_s = self.clock.now_s
        worker.served += 1
        worker.busy_s += now_s - flight.dispatched_s
        # Send the next frame before this response's bookkeeping, so the
        # worker computes while the loop bills, counts and resolves.
        self._idle.append(worker.worker_id)
        self._dispatch()
        response.submitted_s = flight.submitted_s
        response.dispatched_s = flight.dispatched_s
        response.completed_s = now_s
        self.metrics.observe_compile(response.compile_hits, response.compile_misses)
        if flight.abandoned:
            # The deadline expired mid-flight and the future already
            # resolved deadline-exceeded; the worker's late work is real
            # physical activity that must land on the fault side of the
            # ledger, never on the tenant's bill.
            self._compensate_abandoned(flight, response, now_s)
            return
        if response.status == "completed":
            self.metrics.observe_completion(
                response.tenant,
                latency_s=now_s - flight.submitted_s,
                queueing_delay_s=flight.dispatched_s - flight.submitted_s,
            )
            if flight.request.attempt > 1:
                self.metrics.observe_recovery()
        else:
            self.metrics.observe_failure()
        self._record_billing(flight, response, now_s)
        if not flight.future.done():
            flight.future.set_result(response)

    def _on_corrupt_frame(self, worker: _Worker, exc: WireFormatError) -> None:
        """A worker shipped an undecodable response frame: fail only its
        in-flight request (typed reason), kill the byzantine process —
        its in-process ledgers hold work no decodable snapshot will ever
        account for, so its accounting currency must stay the last good
        snapshot — and let the slot respawn."""
        self.metrics.observe_corrupt_frame()
        flight = self._inflight.get(worker.worker_id)
        if flight is not None and not flight.future.done():
            self._resolve_failed(
                flight,
                f"corrupt response frame from worker {worker.worker_id}: "
                f"{exc}",
            )
        worker.process.kill()
        self._on_worker_death(worker, cause="corrupt-frame")

    def _record_billing(
        self, flight: _Flight, response: GatewayResponse, now_s: float
    ) -> None:
        """Fold the worker-measured usage into the gateway ledger, keyed
        by worker id (= device id): the wall-clock analogue of the
        simulated server's per-tenant accounting."""
        from repro.serve.accounting import RequestUsage

        for energy_j in response.housekeeping_energy_j:
            self.ledger.record_housekeeping(energy_j, device_id=response.worker_id)
        if not response.usage:
            return
        self._bill_counter += 1
        self.ledger.record(
            RequestUsage(
                request_id=response.request_id,
                tenant=response.tenant,
                batch_id=self._bill_counter,
                arrival_s=flight.submitted_s,
                completed_s=now_s,
                service_s=response.usage["service_s"],
                latency_s=now_s - flight.submitted_s,
                host_energy_j=response.usage["host_energy_j"],
                offload_energy_j=response.usage["offload_energy_j"],
                accelerator_energy_j=response.usage["accelerator_energy_j"],
                crossbar_cell_writes=int(response.usage["crossbar_cell_writes"]),
                crossbar_write_ops=int(response.usage["crossbar_write_ops"]),
                gemv_count=int(response.usage["gemv_count"]),
                macs=int(response.usage["macs"]),
                dma_bytes=int(response.usage["dma_bytes"]),
                device_id=response.worker_id,
            )
        )

    def _compensate_abandoned(
        self, flight: _Flight, response: GatewayResponse, now_s: float
    ) -> None:
        """Absorb a deadline-abandoned request's measured work as a
        compensation: the physical deltas are real (they are in the
        worker's shipped snapshot) but no response was delivered, so the
        tenant is never billed for them."""
        for energy_j in response.housekeeping_energy_j:
            self.ledger.record_housekeeping(energy_j, device_id=response.worker_id)
        if not response.usage:
            return
        self._bill_counter += 1
        self.ledger.record_compensation(
            FaultCompensation(
                request_id=response.request_id,
                tenant=response.tenant,
                device_id=response.worker_id,
                batch_id=self._bill_counter,
                at_s=now_s,
                reason=(
                    f"request {response.request_id} exceeded its deadline "
                    f"in flight; the late result was discarded"
                ),
                op="deadline-exceeded",
                offload_energy_j=response.usage["offload_energy_j"],
                accelerator_energy_j=response.usage["accelerator_energy_j"],
                crossbar_cell_writes=int(response.usage["crossbar_cell_writes"]),
                crossbar_write_ops=int(response.usage["crossbar_write_ops"]),
                gemv_count=int(response.usage["gemv_count"]),
                macs=int(response.usage["macs"]),
                dma_bytes=int(response.usage["dma_bytes"]),
            )
        )

    # ------------------------------------------------------------------
    # Monitor: watchdog, deadlines, respawns
    # ------------------------------------------------------------------
    async def _monitor(self) -> None:
        """Run the hang watchdog, enforce deadlines and execute scheduled
        respawns (deaths need no polling: they arrive as end-of-file)."""
        while not self._closed:
            now_s = self.clock.now_s
            self._check_hangs(now_s)
            self._enforce_deadlines(now_s)
            self._run_respawns(now_s)
            await asyncio.sleep(0.05)

    def _check_hangs(self, now_s: float) -> None:
        timeout_s = self.config.hang_timeout_s
        if timeout_s is None:
            return
        for worker_id, flight in list(self._inflight.items()):
            worker = self._workers[worker_id]
            if worker.dead:
                continue
            if now_s - flight.dispatched_s <= timeout_s:
                continue
            # Wedged: the process is alive but has sat on one request
            # longer than any legitimate dispatch can take.  SIGKILL it
            # and run the exact crash contract — compensate, retry on a
            # survivor, respawn the slot.
            self.metrics.observe_hang_detected()
            worker.process.kill()
            self._on_worker_death(
                worker,
                cause="worker-hang",
                detail=(
                    f"exceeded hang_timeout_s={timeout_s:g} on request "
                    f"{flight.request.request_id}; SIGKILLed by the watchdog"
                ),
            )

    def _enforce_deadlines(self, now_s: float) -> None:
        expired = [f for f in self._pending if f.deadline_passed(now_s)]
        if expired:
            self._pending = deque(
                f for f in self._pending if not f.deadline_passed(now_s)
            )
            for flight in expired:
                self._resolve_deadline(flight, shed=True)
        for flight in self._inflight.values():
            if not flight.abandoned and flight.deadline_passed(now_s):
                flight.abandoned = True
                self._resolve_deadline(flight, shed=False)

    def _resolve_deadline(self, flight: _Flight, shed: bool) -> None:
        """Answer a request whose deadline has passed: ``shed`` before
        dispatch (no work ever happened) or at expiry in flight (the
        worker's late work will be compensated when its frame lands)."""
        if shed:
            self.metrics.observe_deadline_shed()
            reason = (
                f"deadline {flight.request.deadline_s:.3f}s passed before "
                "dispatch; request shed"
            )
        else:
            self.metrics.observe_deadline_expired()
            reason = (
                f"deadline {flight.request.deadline_s:.3f}s expired in "
                "flight; result discarded"
            )
        if flight.future.done():
            return
        response = GatewayResponse(
            request_id=flight.request.request_id,
            tenant=flight.request.tenant,
            status="deadline-exceeded",
            worker_id=flight.worker_id if flight.worker_id is not None else -1,
            attempt=flight.request.attempt,
            reason=reason,
        )
        response.submitted_s = flight.submitted_s
        response.dispatched_s = flight.dispatched_s
        response.completed_s = self.clock.now_s
        flight.future.set_result(response)

    def _run_respawns(self, now_s: float) -> None:
        for slot in self._slots:
            if slot.pending_respawn_s is None or slot.pending_respawn_s > now_s:
                continue
            slot.pending_respawn_s = None
            if self._closed:
                continue
            if slot.respawn_to_spare:
                worker = self._spawn_worker(spare=True)
                self._spare_ids.append(worker.worker_id)
            else:
                worker = self._spawn_worker(slot_id=slot.slot_id)
                slot.worker_id = worker.worker_id
                self._idle.append(worker.worker_id)
            slot.respawn_to_spare = False
            self.metrics.observe_respawn()
            self._dispatch()

    # ------------------------------------------------------------------
    # Worker-loss recovery
    # ------------------------------------------------------------------
    def _on_worker_death(
        self,
        worker: _Worker,
        cause: str = "worker-crash",
        detail: Optional[str] = None,
    ) -> None:
        worker.dead = True
        # A drain waiting for this worker's totals stops waiting: its
        # accounting currency is now its last shipped snapshot.
        worker.drained_event.set()
        worker_id = worker.worker_id
        self.metrics.observe_device_state(worker_id, "down")
        try:
            self._idle.remove(worker_id)
        except ValueError:
            pass
        if worker.spare:
            try:
                self._spare_ids.remove(worker_id)
            except ValueError:
                pass
        flight = self._inflight.pop(worker_id, None)
        self.metrics.observe_fault(cause)
        if flight is not None:
            # The attempt's physical work (if any) died with the process:
            # its device state is gone, and it shipped neither a usage
            # record nor a physical snapshot, so the partition stays exact.
            # The compensation record carries zero measured deltas and
            # exists as the audit trail of the lost attempt.
            self._bill_counter += 1
            self.ledger.record_compensation(
                FaultCompensation(
                    request_id=flight.request.request_id,
                    tenant=flight.request.tenant,
                    device_id=worker_id,
                    batch_id=self._bill_counter,
                    at_s=self.clock.now_s,
                    reason=detail
                    or (
                        f"worker {worker_id} died serving request "
                        f"{flight.request.request_id} "
                        f"(exitcode={worker.process.exitcode})"
                    ),
                    op=cause,
                    offload_energy_j=0.0,
                    accelerator_energy_j=0.0,
                    crossbar_cell_writes=0,
                    crossbar_write_ops=0,
                    gemv_count=0,
                    macs=0,
                    dma_bytes=0,
                )
            )
            if not flight.future.done():
                self._retry(flight)
        self._recover_capacity(worker)
        if not self.alive_workers and not self._respawn_pending():
            self._fail_all("no surviving gateway workers")

    def _recover_capacity(self, worker: _Worker) -> None:
        """Self-healing: promote a hot spare into the dead worker's slot
        immediately, schedule a backed-off respawn within the slot's
        budget, or quarantine a crash-looping slot."""
        if worker.slot_id is None:
            return  # a spare died; nothing occupied its capacity
        slot = self._slots[worker.slot_id]
        promoted = False
        if self._spare_ids:
            spare = self._workers[self._spare_ids.popleft()]
            spare.spare = False
            spare.slot_id = slot.slot_id
            slot.worker_id = spare.worker_id
            self._idle.append(spare.worker_id)
            self.metrics.observe_spare_promoted()
            self.metrics.observe_device_state(spare.worker_id, "up")
            promoted = True
            self._dispatch()
        if self.config.max_respawns <= 0:
            return  # self-healing off: the pool shrinks permanently
        if slot.respawns < self.config.max_respawns and not self._closed:
            slot.respawns += 1
            backoff_s = min(
                self.config.respawn_backoff_base_s * 2 ** (slot.respawns - 1),
                self.config.respawn_backoff_max_s,
            )
            slot.pending_respawn_s = self.clock.now_s + backoff_s
            slot.respawn_to_spare = promoted
        elif not promoted and not slot.quarantined:
            slot.quarantined = True
            self.metrics.observe_slot_quarantined()
            self.metrics.observe_device_state(worker.worker_id, "quarantined")

    def _retry(self, flight: _Flight) -> None:
        request = flight.request
        if request.attempt >= self.config.max_attempts:
            self.metrics.observe_unrecovered()
            self._resolve_failed(
                flight,
                f"request {request.request_id}: {request.attempt} attempts "
                "exhausted across worker deaths",
            )
            return
        request.attempt += 1
        # Strip the fault marker: one marker means exactly one fault, and
        # the retry must run clean on a surviving worker.
        request.fault = None
        flight.frame = request.to_json()
        self.metrics.observe_retry()
        self._pending.appendleft(flight)
        self._dispatch()

    def _resolve_failed(self, flight: _Flight, reason: str) -> None:
        if flight.future.done():
            return
        response = GatewayResponse(
            request_id=flight.request.request_id,
            tenant=flight.request.tenant,
            status="failed",
            worker_id=flight.worker_id if flight.worker_id is not None else -1,
            attempt=flight.request.attempt,
            reason=reason,
        )
        response.submitted_s = flight.submitted_s
        response.dispatched_s = flight.dispatched_s
        response.completed_s = self.clock.now_s
        self.metrics.observe_failure()
        flight.future.set_result(response)

    def _fail_all(self, reason: str) -> None:
        for flight in list(self._pending):
            self._resolve_failed(flight, reason)
        self._pending.clear()
        for flight in list(self._inflight.values()):
            self._resolve_failed(flight, reason)
        self._inflight.clear()

    # ------------------------------------------------------------------
    # Drain / teardown
    # ------------------------------------------------------------------
    async def drain(self) -> dict:
        """Graceful shutdown: stop admission, serve everything in flight,
        collect each worker's authoritative totals, tear the pool down.
        A worker that cannot finish draining within 30 s is killed and
        its stranded flight failed — close never hangs and never leaves
        zombies.  Returns the final metrics snapshot.  Idempotent."""
        if self._closed:
            return self.snapshot()
        self._draining = True
        stalled_s = 0.0
        while self._pending or self._inflight:
            futures = [
                f.future
                for f in list(self._pending) + list(self._inflight.values())
                if not f.future.done()
            ]
            if futures:
                stalled_s = 0.0
                await asyncio.gather(*futures, return_exceptions=True)
                continue
            # Every future is resolved but flights still sit in _inflight:
            # deadline-abandoned work whose workers have not answered yet.
            # Give them a bounded grace period, then kill the stragglers
            # (their compensations are zero-work: nothing they shipped
            # after death counts).
            if stalled_s >= _DRAIN_TIMEOUT_S:
                for worker_id in list(self._inflight):
                    worker = self._workers[worker_id]
                    if not worker.dead:
                        worker.process.kill()
                        self._on_worker_death(
                            worker,
                            cause="worker-hang",
                            detail=(
                                f"worker {worker_id} never answered its "
                                "abandoned flight; killed at drain"
                            ),
                        )
                self._inflight.clear()
                break
            await asyncio.sleep(0.05)
            stalled_s += 0.05
        for worker in self._workers:
            if not worker.dead:
                try:
                    worker.requests.put(DRAIN_FRAME)
                except OSError:
                    self._on_worker_death(worker)
        for worker in self._workers:
            if worker.dead:
                continue
            try:
                await asyncio.wait_for(
                    worker.drained_event.wait(), timeout=_DRAIN_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                # Wedged mid-drain: kill it and fail anything it strands
                # rather than hanging close forever.  Its accounting
                # currency falls back to the last snapshot it shipped.
                worker.process.kill()
                worker.dead = True
                self.metrics.observe_device_state(worker.worker_id, "down")
                self.metrics.observe_fault("worker-hang")
                flight = self._inflight.pop(worker.worker_id, None)
                if flight is not None:
                    self._resolve_failed(
                        flight,
                        f"worker {worker.worker_id} failed to drain within "
                        f"{_DRAIN_TIMEOUT_S:.0f}s and was killed",
                    )
        self._closed = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        for worker in self._workers:
            self._close_pipes(worker)
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                # terminate() did not take (blocked in an uninterruptible
                # state): escalate to SIGKILL so close never leaves a
                # zombie behind.
                worker.process.kill()
                worker.process.join(timeout=5.0)
            if not worker.dead:
                self.metrics.observe_device_state(worker.worker_id, "drained")
        return self.snapshot()

    # ------------------------------------------------------------------
    # Accounting / metrics
    # ------------------------------------------------------------------
    def verify_partition(self) -> dict[str, bool]:
        """Exactly-once reconciliation across the pool: on every worker
        (every incarnation — respawned slots contribute one worker per
        life), billed tenant work plus compensations must equal that
        worker's physical accelerator totals — the fsum-exact drain
        totals for survivors, the last shipped cumulative snapshot for
        the dead (whose doomed attempt shipped no usage).  Mirrors
        :meth:`~repro.serve.accounting.AccountingLedger.verify_fleet_partition`."""
        totals_by_worker = {
            worker.worker_id: (
                worker.drained_totals
                if worker.drained_totals is not None
                else worker.last_physical
            )
            for worker in self._workers
        }
        return partition_checks(self.ledger, totals_by_worker)

    def snapshot(self) -> dict:
        """MetricsRegistry-style snapshot plus the gateway's own section:
        per-worker utilization (busy wall time over elapsed wall time),
        served counts, liveness, and pool-wide throughput."""
        elapsed_s = self.clock.now_s
        snap = self.metrics.snapshot(
            {"pending": len(self._pending), "inflight": len(self._inflight)}
        )
        workers = {}
        for worker in self._workers:
            workers[str(worker.worker_id)] = {
                "alive": not worker.dead,
                "spare": worker.spare,
                "served": worker.served,
                "busy_s": worker.busy_s,
                "utilization": worker.busy_s / elapsed_s if elapsed_s > 0 else 0.0,
            }
        completed = self.metrics.completed
        snap["gateway"] = {
            "elapsed_s": elapsed_s,
            "num_workers": self.config.num_workers,
            "alive_workers": len(self.alive_workers),
            "hot_spares": len(self._spare_ids),
            "quarantined_slots": sum(1 for s in self._slots if s.quarantined),
            "throughput_rps": completed / elapsed_s if elapsed_s > 0 else 0.0,
            "workers": workers,
            "dead_letters": len(self.dead_letters),
        }
        return snap
