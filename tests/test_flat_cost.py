"""Flat per-request cost in the serving core.

The metrics snapshot and the accelerator's ``total_*()`` helpers (behind
``FleetDevice.total_wear_bytes`` and wear-aware placement) used to fold
the full request history on every call.  They now keep running state;
these tests pin the running state to the old whole-history formulas bit
for bit, and pin the cost of one call to stay flat as history grows.
"""

from __future__ import annotations

import math
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetConfig, FleetServer
from repro.gateway.wire import GatewayRequest
from repro.gateway.worker import _PhysicalTotals, build_worker_server, serve_one
from repro.hw.stats import ExactSum, RunningSum
from repro.serve.metrics import MetricsRegistry, percentile
from test_hw_accelerator import make_accelerator, run_gemm_on_accelerator

GEMV_SOURCE = """
void gemv(int M, int N, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += A[i][j] * x[j];
  }
}
"""


# ----------------------------------------------------------------------
# Metrics snapshot == the old sort-everything formula
# ----------------------------------------------------------------------
def _reference_sections(batch_sizes, latencies, delays, tenant_latencies) -> dict:
    """The snapshot sections the registry used to compute from the raw,
    insertion-ordered history (sorting it on every call)."""
    sections = {
        "mean_occupancy": round(sum(batch_sizes) / len(batch_sizes), 3)
        if batch_sizes
        else 0.0,
        "max_size": max(batch_sizes) if batch_sizes else 0,
    }
    if latencies:
        sections["latency_s"] = {
            "p50": percentile(latencies, 50),
            "p99": percentile(latencies, 99),
            "mean": sum(latencies) / len(latencies),
            "max": max(latencies),
        }
        sections["queueing_delay_s"] = {
            "p50": percentile(delays, 50),
            "p99": percentile(delays, 99),
        }
        sections["tenant_latency_p99_s"] = {
            tenant: percentile(values, 99)
            for tenant, values in sorted(tenant_latencies.items())
        }
    return sections


def _replay(observations) -> tuple[dict, dict]:
    """Feed *observations* to a registry; return (its sections, reference)."""
    metrics = MetricsRegistry()
    batch_sizes, latencies, delays, tenant_latencies = [], [], [], {}
    for kind, tenant, a, b in observations:
        if kind == "batch":
            metrics.observe_batch(int(a), fused=int(a) > 1)
            batch_sizes.append(float(int(a)))
        else:
            metrics.observe_completion(tenant, a, b)
            latencies.append(a)
            delays.append(b)
            tenant_latencies.setdefault(tenant, []).append(a)
    snap = metrics.snapshot()
    got = {
        "mean_occupancy": snap["batching"]["mean_occupancy"],
        "max_size": snap["batching"]["max_size"],
    }
    for key in ("latency_s", "queueing_delay_s", "tenant_latency_p99_s"):
        if key in snap:
            got[key] = snap[key]
    return got, _reference_sections(batch_sizes, latencies, delays, tenant_latencies)


def _assert_bit_identical(got, want) -> None:
    # repr() tells 0.0 from -0.0 and 1 from 1.0, unlike ==.
    assert repr(got) == repr(want)


# A small value pool makes ties (and tied percentile neighbours) common.
_latency = st.one_of(
    st.sampled_from([0.0, 1e-6, 2.5e-4, 2.5e-4 + 1e-19, 0.1, 0.3, 1.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
_observation = st.one_of(
    st.tuples(
        st.just("done"), st.sampled_from(["t0", "t1", "t2"]), _latency, _latency
    ),
    st.tuples(st.just("batch"), st.just(""), st.integers(0, 16), st.just(0.0)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_observation, max_size=60))
def test_snapshot_matches_sort_based_formula(observations):
    _assert_bit_identical(*_replay(observations))


def test_snapshot_of_an_empty_registry():
    got, want = _replay([])
    _assert_bit_identical(got, want)
    assert "latency_s" not in got and got["max_size"] == 0


def test_snapshot_of_a_single_observation():
    got, want = _replay([("done", "t0", 3e-4, 1e-5), ("batch", "", 1, 0.0)])
    _assert_bit_identical(got, want)
    assert got["latency_s"]["p99"] == got["latency_s"]["max"] == 3e-4


def test_snapshot_with_ties_and_signed_zeros():
    observations = [("done", "t0", x, x) for x in (0.0, -0.0, 0.5, 0.5, -0.0, 0.5)]
    _assert_bit_identical(*_replay(observations))


def test_snapshot_with_many_tenants():
    rng = np.random.default_rng(7)
    observations = [
        ("done", f"tenant{int(t)}", float(lat), float(delay))
        for t, lat, delay in zip(
            rng.integers(0, 300, 3000), rng.random(3000), rng.random(3000) * 1e-3
        )
    ]
    got, want = _replay(observations)
    _assert_bit_identical(got, want)
    assert len(got["tenant_latency_p99_s"]) > 250


def test_latency_percentile_keeps_its_contract():
    metrics = MetricsRegistry()
    for latency in (0.4, 0.1, 0.3, 0.2):
        metrics.observe_completion("t0", latency, 0.0)
    assert metrics.latency_percentile_s(50) == percentile([0.4, 0.1, 0.3, 0.2], 50)
    for bad in (-1.0, 101.0):
        with pytest.raises(ValueError):
            metrics.latency_percentile_s(bad)
    with pytest.raises(ValueError):
        MetricsRegistry().latency_percentile_s(50)


# ----------------------------------------------------------------------
# Running sums
# ----------------------------------------------------------------------
_mixed_floats = st.lists(
    st.one_of(
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
        st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 5e-324]),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(_mixed_floats)
def test_running_sum_is_the_builtin_sum(values):
    running = RunningSum()
    for value in values:
        running.add(value)
    _assert_bit_identical(running.value, sum(values))


@settings(max_examples=300, deadline=None)
@given(_mixed_floats)
def test_exact_sum_is_fsum(values):
    exact = ExactSum()
    for value in values:
        exact.add(value)
    _assert_bit_identical(exact.value, math.fsum(values))
    assert len(exact._partials) <= 45


def test_exact_sum_with_cancelling_values():
    values = [1e100, 1.0, -1e100, 1e-100, -1.0, 3.0] * 50
    exact = ExactSum()
    for value in values:
        exact.add(value)
    assert exact.value == math.fsum(values) == 150.0 + 5e-99


# ----------------------------------------------------------------------
# Accelerator running totals == sums over completed_runs
# ----------------------------------------------------------------------
def _assert_totals_match_runs(acc) -> None:
    runs = acc.completed_runs
    _assert_bit_identical(acc.total_energy_j(), sum(r.energy_j for r in runs))
    _assert_bit_identical(acc.total_latency_s(), sum(r.latency_s for r in runs))
    _assert_bit_identical(
        acc.total_cell_writes(), sum(r.crossbar_cell_writes for r in runs)
    )
    _assert_bit_identical(acc.total_macs(), sum(r.macs for r in runs))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.just("reset"),
            st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
        ),
        max_size=12,
    )
)
def test_accelerator_totals_track_completed_runs(steps):
    acc, mem = make_accelerator()
    rng = np.random.default_rng(0)
    _assert_totals_match_runs(acc)
    for step in steps:
        if step == "reset":
            acc.reset_stats()
        else:
            m, n, k = step
            a = rng.random((m, k), dtype=np.float32)
            b = rng.random((k, n), dtype=np.float32)
            run_gemm_on_accelerator(acc, mem, a, b, np.zeros((m, n), np.float32), 1.0, 0.0)
        _assert_totals_match_runs(acc)


def test_worker_fold_keeps_totals_and_exact_energy():
    server = build_worker_server({})
    physical = _PhysicalTotals()
    rng = np.random.default_rng(3)
    energies = []
    writes = 0
    try:
        for request_id in range(12):
            size = int(rng.integers(4, 20))
            request = GatewayRequest(
                request_id=request_id,
                tenant=f"t{request_id % 3}",
                source=GEMV_SOURCE,
                params={"M": size, "N": size},
                arrays={
                    "A": rng.random((size, size), dtype=np.float32),
                    "x": rng.random(size, dtype=np.float32),
                    "y": np.zeros(size, dtype=np.float32),
                },
            )
            assert serve_one(server, request, worker_id=0).status == "completed"
            acc = server.system.accelerator
            # serve_one reset the accelerator first: its runs (and totals)
            # are this request's alone.
            _assert_totals_match_runs(acc)
            physical.fold(acc)
            energies.extend(run.energy_j for run in acc.completed_runs)
            writes += acc.total_cell_writes()
    finally:
        server.shutdown()
    totals = physical.authoritative()
    _assert_bit_identical(totals["energy_j"], math.fsum(energies))
    assert totals["cell_writes"] == writes > 0


# ----------------------------------------------------------------------
# Scale: one call costs the same after 100x more history
# ----------------------------------------------------------------------
def _min_cost_s(fn) -> float:
    """Cost of one call: the best of many timed batches of calls."""
    return min(timeit.repeat(fn, number=50, repeat=40)) / 50


def _registry_after(observations: int) -> MetricsRegistry:
    metrics = MetricsRegistry()
    rng = np.random.default_rng(0)
    for index, latency in enumerate(rng.random(observations).tolist()):
        metrics.observe_batch(1 + index % 4, fused=index % 4 > 0)
        metrics.observe_completion(f"tenant{index % 8}", latency, latency / 2)
    return metrics


def test_snapshot_cost_is_flat_in_observations():
    small = _registry_after(500)
    large = _registry_after(50_000)
    # The sort-based snapshot grew by more than 100x over this range.
    assert _min_cost_s(large.snapshot) <= 5 * _min_cost_s(small.snapshot)


def _fleet_after(leases: int) -> FleetServer:
    fleet = FleetServer(FleetConfig(num_devices=1, max_batch_size=1, batch_window_s=0.0))
    rng = np.random.default_rng(0)
    arrays = {
        "A": rng.random((4, 4), dtype=np.float32),
        "x": rng.random(4, dtype=np.float32),
        "y": np.zeros(4, dtype=np.float32),
    }
    for index in range(leases):
        fleet.submit("t0", GEMV_SOURCE, {"M": 4, "N": 4}, arrays, arrival_s=index * 1e-3)
    fleet.drain()
    return fleet


def test_device_wear_cost_is_flat_in_leases():
    small, large = _fleet_after(50), _fleet_after(5_000)
    try:
        small_device, large_device = small.devices[0], large.devices[0]
        assert len(large_device.system.accelerator.completed_runs) >= 5_000
        assert _min_cost_s(lambda: large_device.total_wear_bytes) <= 5 * _min_cost_s(
            lambda: small_device.total_wear_bytes
        )
    finally:
        small.shutdown()
        large.shutdown()
