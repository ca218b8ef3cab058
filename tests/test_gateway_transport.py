"""Tests for the gateway's pipe transport.

Each worker has two simplex pipes that the event loop serves directly.
The contract under test: frames larger than a pipe's kernel buffer
round-trip under both start methods; a worker that dies after
answering, or halfway through writing a frame, is detected (end-of-file
or a broken pipe) and its request retried without the loop hanging; and
a response hands the worker its next frame before the loop does the
response's bookkeeping.  Every scenario is bounded by a timeout.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os

import numpy as np
import pytest

import repro.gateway.server as server_mod
from repro.gateway import AsyncGateway, GatewayConfig
from repro.gateway.loadgen import GEMV_SOURCE, synthetic_gemv_workload
from repro.gateway.wire import FAULT_EXIT_CODE, GatewayRequest
from repro.gateway.worker import (
    _MESSAGE,
    DRAINED_FRAME,
    REQUEST_FRAME,
    RESPONSE_FRAME,
    Channel,
)

TIMEOUT_S = 60.0


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=TIMEOUT_S))


def submit_item(gateway, item):
    return gateway.submit_nowait(item.tenant, item.source, item.params, item.arrays)


async def wait_for(predicate, timeout_s=10.0, interval_s=0.01):
    waited = 0.0
    while not predicate():
        if waited >= timeout_s:
            raise AssertionError("condition not reached within timeout")
        await asyncio.sleep(interval_s)
        waited += interval_s


def test_channel_reassembles_split_and_coalesced_messages():
    reader, writer = multiprocessing.Pipe(duplex=False)
    inbox, outbox = Channel(reader), Channel(writer)
    try:
        os.set_blocking(inbox.fileno(), False)
        assert inbox.read_messages() == []
        message = _MESSAGE.pack(RESPONSE_FRAME, 5) + b"hello"
        os.write(writer.fileno(), message[:3])
        assert inbox.read_messages() == []
        # The rest of the first message and a whole second one, at once.
        os.write(writer.fileno(), message[3:] + message)
        assert inbox.read_messages() == [(RESPONSE_FRAME, b"hello")] * 2
        outbox.put(DRAINED_FRAME)
        assert inbox.read_messages() == [(DRAINED_FRAME, b"")]
        outbox.close()
        with pytest.raises(EOFError):
            inbox.read_messages()
    finally:
        inbox.close()
        outbox.close()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_frame_larger_than_the_pipe_buffer_roundtrips(start_method):
    """A 256x256 float32 GEMV: its request frame (256 KiB of matrix) is
    four times the 64 KiB pipe buffer."""
    rng = np.random.default_rng(5)
    matrix = rng.integers(0, 8, size=(256, 256)).astype(np.float32)
    x = rng.integers(0, 8, size=256).astype(np.float32)
    arrays = {"A": matrix, "x": x, "y": np.zeros(256, np.float32)}
    assert len(GatewayRequest(1, "t", GEMV_SOURCE, arrays=arrays).to_json()) > 4 * 65536

    async def scenario():
        config = GatewayConfig(num_workers=1, start_method=start_method)
        async with AsyncGateway(config) as gateway:
            response = await gateway.submit_nowait(
                "acme", GEMV_SOURCE, {"M": 256, "N": 256}, arrays
            )
            await gateway.drain()
            return response, gateway.verify_partition()

    response, checks = run(scenario())
    assert response.status == "completed", response.reason
    assert np.array_equal(response.result["y"], matrix @ x)
    assert all(checks.values())


def test_worker_killed_after_answering_is_detected_and_retried():
    """Kill the only worker between two requests.  Sent at once, the
    next request meets a broken pipe; left alone, the death arrives as
    end-of-file.  Either way the pool respawns and the request is served
    on its second attempt."""
    workload = synthetic_gemv_workload(num_tenants=1, seed=31)

    async def scenario():
        config = GatewayConfig(
            num_workers=1, max_respawns=2, respawn_backoff_base_s=0.01
        )
        async with AsyncGateway(config) as gateway:
            first = await submit_item(gateway, workload(0))
            victim = gateway._workers[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            # No await between the kill and the submit: the gateway has
            # not yet read the end-of-file, so the write finds the pipe
            # broken.
            second = await submit_item(gateway, workload(1))
            replacement = gateway._workers[-1]
            replacement.process.kill()
            await wait_for(lambda: replacement.dead)  # end-of-file alone
            third = await submit_item(gateway, workload(2))
            await gateway.drain()
            return first, second, third, gateway

    first, second, third, gateway = run(scenario())
    assert [first.status, second.status, third.status] == ["completed"] * 3
    assert (first.attempt, second.attempt, third.attempt) == (1, 2, 1)
    assert [w.dead for w in gateway._workers] == [True, True, False]
    ops = [c.op for c in gateway.ledger.compensations]
    assert ops == ["worker-crash"]  # only the broken write stranded a request
    assert all(gateway.verify_partition().values())


def _dies_mid_frame(worker_id, config, request_queue, response_queue):
    """Worker 0 writes the first few bytes of a response message that
    promises much more, then dies; the others are real workers."""
    if worker_id != 0:
        return _REAL_WORKER_MAIN(worker_id, config, request_queue, response_queue)
    request_queue.get()
    partial = _MESSAGE.pack(RESPONSE_FRAME, 1 << 16) + b"CIMW" + bytes(60)
    os.write(response_queue.fileno(), partial)
    os._exit(FAULT_EXIT_CODE)


_REAL_WORKER_MAIN = server_mod.worker_main


def test_worker_killed_mid_frame_is_detected_and_retried(monkeypatch):
    monkeypatch.setattr(server_mod, "worker_main", _dies_mid_frame)
    workload = synthetic_gemv_workload(num_tenants=1, seed=32)

    async def scenario():
        async with AsyncGateway(GatewayConfig(num_workers=2)) as gateway:
            response = await submit_item(gateway, workload(0))
            await gateway.drain()
            return response, gateway

    response, gateway = run(scenario())
    assert response.status == "completed", response.reason
    assert response.attempt == 2
    assert response.worker_id == 1
    assert gateway._workers[0].dead
    assert gateway.metrics.corrupt_frames == 0  # a cut frame is a death
    assert [c.op for c in gateway.ledger.compensations] == ["worker-crash"]
    assert all(gateway.verify_partition().values())


def test_next_frame_is_sent_before_the_response_bookkeeping():
    workload = synthetic_gemv_workload(num_tenants=1, seed=33)
    events = []

    async def scenario():
        async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
            requests = gateway._workers[0].requests
            put = requests.put

            def logged_put(kind, body=b""):
                if kind == REQUEST_FRAME:
                    events.append(("sent", GatewayRequest.from_json(body).request_id))
                put(kind, body)

            record_billing = gateway._record_billing

            def logged_billing(flight, response, now_s):
                events.append(("billed", response.request_id))
                record_billing(flight, response, now_s)

            requests.put = logged_put
            gateway._record_billing = logged_billing
            futures = [submit_item(gateway, workload(i)) for i in range(2)]
            futures[0].add_done_callback(
                lambda f: events.append(("resolved", f.result().request_id))
            )
            responses = await asyncio.gather(*futures)
            await gateway.drain()
            return responses

    first, second = run(scenario())
    assert first.status == second.status == "completed"
    a, b = first.request_id, second.request_id
    assert events.index(("sent", b)) < events.index(("billed", a))
    assert events.index(("billed", a)) < events.index(("resolved", a))
