"""Which public functions the benchmark wraps, and the layer each one is.

Every layer name here is a span name; the per-layer metrics in
``BENCHMARK.json`` are these names with a unit suffix.  A layer that a
workload never calls simply records nothing there (its metric reads 0).
"""

from __future__ import annotations

#: Compiler passes grouped into the layers the metrics report.
PASS_LAYERS = {
    "parse": "frontend.parse",
    "normalize-reductions": "frontend.parse",
    "detect-scops": "poly.scop",
    "build-schedule-trees": "poly.scop",
    "match-kernels": "tactics.match",
    "select-offload": "tactics.match",
    "isolate": "transforms",
    "fusion": "transforms",
    "tiling": "transforms",
    "device-map": "transforms",
    "lower": "codegen.lower",
    "engine-lower": "codegen.lower",
}

#: The compile span; its self time is the pass manager's own work (IR
#: printing between passes, fingerprinting, the compile cache).
COMPILE = "compiler.manager_overhead"

COMPILER_LAYERS = (COMPILE,) + tuple(dict.fromkeys(PASS_LAYERS.values()))
SIMULATOR_LAYERS = (
    "codegen.executor",
    "ir.engine",
    "runtime.blas",
    "runtime.copy",
    "driver.submit",
    "hw.microengine",
    "hw.scheduler",
    "host.cost_model",
    "system.build",
)
SERVE_LAYERS = (
    "serve.submit",
    "serve.event_loop",
    "serve.admission",
    "serve.batcher",
    "serve.dispatch",
    "serve.accounting",
    "serve.metrics",
    "serve.metrics_snapshot",
    "fleet.placement",
)
GATEWAY_WIRE = ("wire.encode", "wire.decode")


def metric_name(layer: str, unit: str) -> str:
    """``frontend.parse`` -> ``frontend.parse_ms``; a one-word layer
    takes the unit as its second part (``transforms`` -> ``transforms.ms``)."""
    return f"{layer}_{unit}" if "." in layer else f"{layer}.{unit}"


def compiler_table():
    from repro.compiler.driver import TdoCimCompiler
    from repro.compiler.passes.pipelines import PASS_REGISTRY

    table = [(TdoCimCompiler, "compile", COMPILE)]
    for name, cls in PASS_REGISTRY.items():
        table.append((cls, "run", PASS_LAYERS[name]))
    return table


def wire_table():
    """Both wire frames, encode and decode, tagged with their request id."""
    from repro.gateway.wire import GatewayRequest, GatewayResponse

    def own_id(args, result):
        return args[0].request_id

    def result_id(args, result):
        return None if result is None else result.request_id

    return [
        (GatewayRequest, "to_json", "wire.encode", own_id),
        (GatewayResponse, "to_json", "wire.encode", own_id),
        (GatewayRequest, "from_json", "wire.decode", result_id),
        (GatewayResponse, "from_json", "wire.decode", result_id),
    ]


def simulator_table():
    from repro.codegen.executor import OffloadExecutor
    from repro.driver.driver import CimDriver
    from repro.host.cost_model import HostCostModel
    from repro.hw.microengine import MicroEngine
    from repro.hw.scheduler import TileScheduler
    from repro.ir.interp import Interpreter
    from repro.runtime.api import CimRuntime
    from repro.runtime.blas import CimBlas
    from repro.system.system import CimSystem

    return [
        (OffloadExecutor, "run", "codegen.executor"),
        (Interpreter, "run", "ir.engine"),
        (CimBlas, "sgemm", "runtime.blas"),
        (CimBlas, "sgemv", "runtime.blas"),
        (CimBlas, "gemm_batched", "runtime.blas"),
        (CimBlas, "conv2d", "runtime.blas"),
        (CimRuntime, "cim_host_to_dev", "runtime.copy"),
        (CimRuntime, "cim_dev_to_host", "runtime.copy"),
        (CimDriver, "submit", "driver.submit"),
        (MicroEngine, "run_gemm", "hw.microengine"),
        (MicroEngine, "run_gemm_batched", "hw.microengine"),
        (MicroEngine, "run_conv2d", "hw.microengine"),
        (TileScheduler, "schedule", "hw.scheduler"),
        (HostCostModel, "estimate_trace", "host.cost_model"),
        (HostCostModel, "estimate_program", "host.cost_model"),
        (CimSystem, "__init__", "system.build"),
    ]


def serve_table():
    """The serving core shared by the fleet and the gateway's workers."""
    import repro.fleet.server as fleet_server
    import repro.serve.dispatch as dispatch
    import repro.serve.server as serve_server
    from repro.fleet.placement import (
        LeastLoadedPlacement,
        RoundRobinPlacement,
        WearAwarePlacement,
    )
    from repro.fleet.server import FleetServer
    from repro.serve.accounting import AccountingLedger
    from repro.serve.admission import AdmissionController
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.dispatch import LeaseExecutor
    from repro.serve.metrics import MetricsRegistry
    from repro.serve.server import CimServer

    table = [
        (FleetServer, "submit", "serve.submit"),
        (FleetServer, "drain", "serve.event_loop"),
        (CimServer, "submit", "serve.submit"),
        (CimServer, "drain", "serve.event_loop"),
        (DynamicBatcher, "form_batch", "serve.batcher"),
        (fleet_server, "batch_signature", "serve.batcher"),
        (serve_server, "batch_signature", "serve.batcher"),
        (dispatch, "extract_fused_gemv_plan", "serve.batcher"),
        (LeaseExecutor, "dispatch", "serve.dispatch"),
        (MetricsRegistry, "snapshot", "serve.metrics_snapshot"),
    ]
    for attr in ("admit", "requeue", "pick_seed", "remove",
                 "queued_requests", "queue_depths"):
        table.append((AdmissionController, attr, "serve.admission"))
    for attr in ("record", "record_housekeeping", "record_compensation",
                 "record_rejection"):
        table.append((AccountingLedger, attr, "serve.accounting"))
    for attr in sorted(vars(MetricsRegistry)):
        if attr.startswith("observe_"):
            table.append((MetricsRegistry, attr, "serve.metrics"))
    for cls in (RoundRobinPlacement, LeastLoadedPlacement, WearAwarePlacement):
        table.append((cls, "choose", "fleet.placement"))
    return table
