"""Tests for the gateway's resilience layer (PR 10 tentpole).

Deadlines, the hang watchdog, self-healing respawn/quarantine/hot-spare
recovery, wall-clock per-tenant admission, the defensive collector, and
the monitor/retry late-frame race.  These spawn real worker processes
and measure real time, so counts and timeouts are kept small.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.gateway import AsyncGateway, GatewayConfig
from repro.gateway.loadgen import synthetic_gemv_workload
from repro.gateway.wire import WireFormatError
from repro.serve.admission import TenantQuota


def run(coroutine):
    return asyncio.run(coroutine)


def submit_item(gateway, item, fault=None, deadline_s=None):
    return gateway.submit_nowait(
        item.tenant,
        item.source,
        item.params,
        item.arrays,
        fault=fault,
        deadline_s=deadline_s,
    )


async def wait_for(predicate, timeout_s=5.0, interval_s=0.02):
    """Poll *predicate* on the loop until true or the timeout expires."""
    waited = 0.0
    while not predicate():
        if waited >= timeout_s:
            raise AssertionError("condition not reached within timeout")
        await asyncio.sleep(interval_s)
        waited += interval_s


class TestDeadlines:
    def test_deadline_already_passed_is_shed(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=11)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                response = await submit_item(
                    gateway, workload(0), deadline_s=gateway.clock.now_s - 1.0
                )
                await gateway.drain()
                return response, gateway.metrics, gateway.ledger

        response, metrics, ledger = run(scenario())
        assert response.status == "deadline-exceeded"
        assert "shed" in response.reason
        assert metrics.deadline_shed == 1
        # Never dispatched: no usage, no compensation, nothing billed.
        assert not list(ledger.all_usages())
        assert not ledger.compensations

    def test_deadline_expires_in_flight_and_work_is_compensated(self):
        """A slow worker blows through the request's deadline: the caller
        gets deadline-exceeded promptly, and the worker's late result is
        absorbed as a measured compensation — real physical work, never
        billed to the tenant."""
        workload = synthetic_gemv_workload(num_tenants=1, seed=12)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                response = await submit_item(
                    gateway,
                    workload(0),
                    fault="slow:0.5",
                    deadline_s=gateway.clock.now_s + 0.15,
                )
                resolved_s = gateway.clock.now_s
                await gateway.drain()
                return response, resolved_s, gateway

        response, resolved_s, gateway = run(scenario())
        assert response.status == "deadline-exceeded"
        assert "expired in flight" in response.reason
        # Resolved at expiry, not after the 0.5 s stall finished.
        assert resolved_s < 0.45
        assert gateway.metrics.deadline_expired == 1
        # The tenant was never billed; the measured work landed as a
        # deadline-exceeded compensation and the partition stays exact.
        assert not list(gateway.ledger.all_usages())
        comps = [
            c for c in gateway.ledger.compensations
            if c.op == "deadline-exceeded"
        ]
        assert len(comps) == 1
        assert comps[0].accelerator_energy_j > 0.0
        assert comps[0].batch_id > 0
        assert all(gateway.verify_partition().values())


class TestHangWatchdog:
    def test_wedged_worker_is_killed_and_request_retried(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=13)

        async def scenario():
            config = GatewayConfig(num_workers=2, hang_timeout_s=0.3)
            async with AsyncGateway(config) as gateway:
                response = await submit_item(gateway, workload(0), fault="hang")
                await gateway.drain()
                return response, gateway

        response, gateway = run(scenario())
        assert response.status == "completed"
        assert response.attempt == 2
        assert gateway.metrics.hangs_detected == 1
        comps = [
            c for c in gateway.ledger.compensations if c.op == "worker-hang"
        ]
        assert len(comps) == 1
        assert comps[0].accelerator_energy_j == 0.0
        assert "hang_timeout_s" in comps[0].reason
        # Exactly-once billing despite the kill + retry.
        usages = [
            u for u in gateway.ledger.all_usages()
            if u.request_id == response.request_id
        ]
        assert len(usages) == 1
        assert all(gateway.verify_partition().values())

    def test_watchdog_off_by_default(self):
        assert GatewayConfig().hang_timeout_s is None


class TestSelfHealing:
    def test_dead_worker_respawns_and_pool_recovers(self):
        """With a respawn budget, losing the only worker is transient:
        the killed request retries on the respawned incarnation."""
        workload = synthetic_gemv_workload(num_tenants=1, seed=14)

        async def scenario():
            config = GatewayConfig(
                num_workers=1,
                max_respawns=2,
                respawn_backoff_base_s=0.05,
            )
            async with AsyncGateway(config) as gateway:
                first = await submit_item(
                    gateway, workload(0), fault="die-mid-request"
                )
                second = await submit_item(gateway, workload(1))
                await gateway.drain()
                return first, second, gateway

        first, second, gateway = run(scenario())
        assert first.status == "completed"
        assert first.attempt == 2
        assert second.status == "completed"
        assert gateway.metrics.respawns == 1
        assert len(gateway.alive_workers) == 1
        # Both incarnations reconcile in the partition.
        assert len(gateway._workers) == 2
        assert all(gateway.verify_partition().values())

    def test_respawn_backoff_is_capped_exponential(self):
        config = GatewayConfig(
            max_respawns=10,
            respawn_backoff_base_s=0.1,
            respawn_backoff_max_s=0.4,
        )
        backoffs = [
            min(
                config.respawn_backoff_base_s * 2 ** (n - 1),
                config.respawn_backoff_max_s,
            )
            for n in range(1, 6)
        ]
        assert backoffs == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_crash_looping_slot_is_quarantined(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=15)

        async def scenario():
            config = GatewayConfig(
                num_workers=1,
                max_respawns=1,
                respawn_backoff_base_s=0.05,
            )
            async with AsyncGateway(config) as gateway:
                first = await submit_item(
                    gateway, workload(0), fault="die-mid-request"
                )
                # The respawned worker dies too: budget exhausted, the
                # slot quarantines, and with no recovery path left the
                # retry fails out.
                second = await submit_item(
                    gateway, workload(1), fault="die-mid-request"
                )
                snapshot = gateway.snapshot()
                await gateway.drain()
                return first, second, snapshot, gateway

        first, second, snapshot, gateway = run(scenario())
        assert first.status == "completed"
        assert second.status == "failed"
        assert "no surviving gateway workers" in second.reason
        assert gateway.metrics.slots_quarantined == 1
        assert snapshot["gateway"]["quarantined_slots"] == 1
        assert all(gateway.verify_partition().values())

    def test_hot_spare_promotion_is_immediate(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=16)

        async def scenario():
            config = GatewayConfig(num_workers=1, hot_spares=1)
            async with AsyncGateway(config) as gateway:
                spares_before = len(gateway._spare_ids)
                response = await submit_item(
                    gateway, workload(0), fault="die-mid-request"
                )
                await gateway.drain()
                return spares_before, response, gateway

        spares_before, response, gateway = run(scenario())
        assert spares_before == 1
        # No respawn budget, yet the pool recovered: the spare took over.
        assert response.status == "completed"
        assert response.attempt == 2
        assert gateway.metrics.spares_promoted == 1
        assert gateway.metrics.respawns == 0
        assert len(gateway.alive_workers) == 1
        assert all(gateway.verify_partition().values())


class TestWallClockAdmission:
    def test_per_tenant_queue_depth_shedding(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=17)

        async def scenario():
            config = GatewayConfig(
                num_workers=1,
                default_quota=TenantQuota(max_queue_depth=1),
            )
            async with AsyncGateway(config) as gateway:
                # Burst without yielding: 1 dispatches, 1 queues, the
                # rest shed against the tenant's depth quota.
                futures = [
                    submit_item(gateway, workload(index)) for index in range(5)
                ]
                responses = await asyncio.gather(*futures)
                await gateway.drain()
                return responses, gateway.ledger

        responses, ledger = run(scenario())
        statuses = [r.status for r in responses]
        assert statuses.count("completed") == 2
        assert statuses.count("rejected") == 3
        rejected = next(r for r in responses if r.status == "rejected")
        assert "tenant queue full" in rejected.reason
        assert ledger.account("tenant-0").rejected == 3

    def test_energy_quota_exhaustion(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=18)

        async def scenario():
            gateway = AsyncGateway(GatewayConfig(num_workers=1))
            async with gateway:
                gateway.set_quota(
                    "tenant-0", TenantQuota(energy_budget_j=1e-30)
                )
                first = await submit_item(gateway, workload(0))
                second = await submit_item(gateway, workload(1))
                await gateway.drain()
                return first, second

        first, second = run(scenario())
        # The first request is admitted (nothing spent yet) and bills
        # energy past the tiny budget; the second is shed.
        assert first.status == "completed"
        assert second.status == "rejected"
        assert "energy quota exhausted" in second.reason

    def test_unknown_fault_marker_rejected_at_submit(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=19)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                with pytest.raises(WireFormatError, match="unknown fault"):
                    submit_item(gateway, workload(0), fault="explode")
                await gateway.drain()

        run(scenario())


class TestDefensiveCollector:
    def test_corrupt_frame_fails_only_that_request(self):
        """Saboteur worker: an undecodable response frame fails its own
        request with a typed reason, kills the byzantine worker, and
        leaves the collector, the other requests and the accounting
        partition intact."""
        workload = synthetic_gemv_workload(num_tenants=2, seed=20)

        async def scenario():
            config = GatewayConfig(num_workers=2)
            async with AsyncGateway(config) as gateway:
                futures = [
                    submit_item(
                        gateway,
                        workload(index),
                        fault="corrupt-frame" if index == 1 else None,
                    )
                    for index in range(6)
                ]
                responses = await asyncio.gather(*futures)
                await gateway.drain()
                return responses, gateway

        responses, gateway = run(scenario())
        statuses = [r.status for r in responses]
        assert statuses[1] == "failed"
        assert "corrupt response frame" in responses[1].reason
        assert statuses.count("completed") == 5
        assert gateway.metrics.corrupt_frames == 1
        comps = [
            c for c in gateway.ledger.compensations if c.op == "corrupt-frame"
        ]
        assert len(comps) == 1
        # The saboteur was killed (its unaccountable work died with it)
        # and the partition reconciles on its last good snapshot.
        assert len(gateway.alive_workers) == 1
        assert not list(
            u for u in gateway.ledger.all_usages() if u.request_id == 2
        )
        assert all(gateway.verify_partition().values())


class TestLateFrameRace:
    def test_late_frame_from_dead_worker_is_ignored(self):
        """The death/response race: a worker is declared dead while its
        response frame is already in its pipe.  The late frame must be
        ignored — absorbing its usage or physical snapshot would bill
        twice and corrupt the partition."""
        workload = synthetic_gemv_workload(num_tenants=1, seed=21)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=2)) as gateway:
                future = submit_item(gateway, workload(0), fault="slow:0.3")
                await wait_for(lambda: gateway._inflight)
                worker_id = next(iter(gateway._inflight))
                worker = gateway._workers[worker_id]
                # Declare the worker dead while it is still serving: its
                # response frame will land *after* the death handling —
                # exactly the race the monitor can lose.
                gateway._on_worker_death(worker)
                response = await future
                await wait_for(
                    lambda: gateway.metrics.late_frames_ignored == 1
                )
                # The zombie process is still alive (the death was a
                # simulation); reap it so drain doesn't wait on it.
                worker.process.kill()
                await gateway.drain()
                return worker_id, response, gateway

        worker_id, response, gateway = run(scenario())
        assert response.status == "completed"
        assert response.attempt == 2
        assert response.worker_id != worker_id
        assert gateway.metrics.late_frames_ignored == 1
        # Billed exactly once — by the retry, never by the late frame.
        usages = [
            u for u in gateway.ledger.all_usages()
            if u.request_id == response.request_id
        ]
        assert len(usages) == 1
        assert usages[0].device_id != worker_id
        assert all(gateway.verify_partition().values())


class TestDrainEscalation:
    def test_drain_kills_worker_that_never_acknowledges(self, monkeypatch):
        """A worker wedged at drain time: the drained-event wait times
        out, the worker is killed, and close() returns instead of
        hanging — no zombie processes survive."""
        import repro.gateway.server as server_mod
        from repro.gateway.wire import GatewayRequest
        from repro.gateway.worker import REQUEST_FRAME

        monkeypatch.setattr(server_mod, "_DRAIN_TIMEOUT_S", 0.5)
        workload = synthetic_gemv_workload(num_tenants=1, seed=22)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                response = await submit_item(gateway, workload(0))
                # Wedge the worker behind the gateway's back: a raw hang
                # frame with no flight registered, so the gateway believes
                # the worker is idle and drain must discover the wedge.
                item = workload(0)
                rogue = GatewayRequest(
                    request_id=999,
                    tenant=item.tenant,
                    source=item.source,
                    params=dict(item.params),
                    arrays=dict(item.arrays),
                    fault="hang",
                )
                worker = gateway._workers[0]
                worker.requests.put(REQUEST_FRAME, rogue.to_json())
                await asyncio.sleep(0.2)
                await gateway.drain()
                return response, worker

        response, worker = run(scenario())
        assert response.status == "completed"
        assert worker.dead
        assert not worker.process.is_alive()
