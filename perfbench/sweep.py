"""``polybench-sweep``: the paper's flow, one distinct kernel at a time.

Each item is a (PolyBench kernel, problem size) pair that the run has not
seen before, so every compile is a cache miss.  The item is compiled by
``TdoCimCompiler.compile``, run on a fresh ``CimSystem`` through
``OffloadExecutor.run``, costed against the host-only baseline with
``HostCostModel`` (the paper's Fig. 6 energy and EDP factors) and checked
against the kernel's NumPy reference, which does not use the compiler.

Sizes come from ``LEVELS`` bands between each kernel's SMALL and LARGE
dataset, each band holding up to ``BAND_POINTS`` distinct sizes.  Every
round of eight items holds each kernel once and each band once (a Latin
square whose offsets the seed draws), so the cost of a round barely
depends on the seed.  A band's sizes come in seeded order and repeat only
after all of them were used, more than 1500 items later, far beyond the
compile cache's 128 entries: every compile is a miss, and the run checks
that it was.  The simulated metrics and the digest cover the first
``PREFIX_ITEMS`` items, which every run completes, so one seed always
reports the same simulated numbers.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np
from repro.eval.metrics import geometric_mean
from repro.serve.metrics import percentile

import layers
import spans
from measure import Digest, HostSpeed, Outcome, peak_rss_mb

LEVELS = 8
BAND_POINTS = 32
PREFIX_ITEMS = 128
#: Items per second of ``--seconds``: a run does this much work, which
#: takes about that long on a 2-vCPU AMD EPYC VM.  Fixed work keeps the
#: runs of two commits comparable however fast the host is that minute.
ITEMS_PER_SECOND = 200
SETUPS = 15
#: Two crossbar tiles, so the tile scheduler is on the measured path.
NUM_TILES = 2
#: The repo's own tolerance for offloaded float32 results.
RTOL, ATOL = 1e-3, 1e-4


class ItemStream:
    """Seeded stream of (kernel, params, array seed) items."""

    def __init__(self, seed: int):
        from repro.workloads.polybench import KERNELS

        self.kernels = KERNELS
        self.names = sorted(KERNELS)
        self.rng = random.Random(seed)
        offsets = list(range(LEVELS))
        self.rng.shuffle(offsets)
        self.offset = dict(zip(self.names, offsets))
        self.bands: dict = {}
        self.round = 0
        self.pending: list = []

    def _band(self, name: str, level: int) -> list:
        """The sizes of one ladder band, in seeded order.  Bands split the
        kernel's distinct sizes into ``LEVELS`` disjoint runs, so no size
        is in two bands."""
        kernel = self.kernels[name]
        small, large = kernel.params("SMALL"), kernel.params("LARGE")
        points = LEVELS * BAND_POINTS
        sizes = sorted({
            tuple(
                (key, low if low == large[key]
                 else round(low + (i + 0.5) / points * (large[key] - low)))
                for key, low in sorted(small.items())
            )
            for i in range(points)
        }, key=lambda size: [value for _, value in size])
        share = len(sizes) / LEVELS
        band = sizes[round(level * share):round((level + 1) * share)]
        self.rng.shuffle(band)
        return [band, 0]

    def __next__(self):
        if not self.pending:
            names = list(self.names)
            self.rng.shuffle(names)
            self.pending = [
                (name, (self.round + self.offset[name]) % LEVELS) for name in names
            ]
            self.round += 1
        name, level = self.pending.pop()
        band = self.bands.get((name, level))
        if band is None:
            band = self.bands[(name, level)] = self._band(name, level)
        sizes, position = band
        band[1] += 1
        return name, dict(sizes[position % len(sizes)]), self.rng.randrange(1 << 30)


class Sweep:
    """One compiler + host model; a fresh device per item."""

    def __init__(self):
        from repro.compiler.cache import KernelCompileCache
        from repro.compiler.driver import TdoCimCompiler
        from repro.compiler.options import CompileOptions
        from repro.host.cost_model import HostCostModel
        from repro.system.config import SystemConfig
        from repro.workloads.polybench import KERNELS

        self.kernels = KERNELS
        self.cache = KernelCompileCache()
        self.compiler = TdoCimCompiler(CompileOptions(), cache=self.cache)
        self.config = SystemConfig(num_tiles=NUM_TILES)
        self.host_model = HostCostModel(self.config.host)
        # Warm-up: every kernel once at MINI size (never drawn later), so
        # lazy imports and first-call costs stay out of the timed phase.
        for name, kernel in sorted(KERNELS.items()):
            params = kernel.params("MINI")
            self.run_item(name, params, 0)

    def run_item(self, name: str, params: dict, array_seed: int, recorder=None):
        """Compile, simulate, cost and check one item.  Returns
        (evaluation, outputs, correct, compile_missed)."""
        from repro.codegen.executor import OffloadExecutor
        from repro.eval.experiments import KernelEvaluation
        from repro.ir import normalize
        from repro.system.system import CimSystem

        kernel = self.kernels[name]
        if recorder:
            recorder.enter("bench.inputs")
        arrays = kernel.init_arrays(params, array_seed)
        if recorder:
            recorder.exit()
        misses0 = self.cache.misses
        compiled = self.compiler.compile(kernel.source, size_hint=params)
        missed = self.cache.misses == misses0 + 1
        executor = OffloadExecutor(CimSystem(self.config))
        outputs, report = executor.run(compiled, params, arrays)
        if recorder:
            recorder.enter("bench.host_baseline")
        host_program = normalize.normalize_reductions(compiled.source_program)
        evaluation = KernelEvaluation(
            kernel=name,
            category=kernel.category,
            dataset="sweep",
            host=self.host_model.estimate_program(host_program, params),
            cim=report,
            cim_host=self.host_model.estimate_program(compiled.program, params),
            compilation=compiled,
        )
        if recorder:
            recorder.exit()
            recorder.enter("bench.check")
        reference = kernel.numpy_reference(params, arrays)
        correct = all(
            np.allclose(outputs[out], reference[out], rtol=RTOL, atol=ATOL)
            for out in kernel.output_arrays
        )
        if recorder:
            recorder.exit()
        return evaluation, outputs, correct, missed


def _digest_item(digest: Digest, name, params, evaluation, outputs) -> None:
    report = evaluation.cim
    digest.add(name, tuple(sorted(params.items())))
    digest.add(
        report.gemv_count, report.crossbar_cell_writes, report.crossbar_write_ops,
        report.accelerator_macs, report.dma_bytes, report.offload_instructions,
        report.offload_energy_j, report.offload_time_s,
        report.accelerator_energy_j, report.accelerator_time_s,
        evaluation.host.energy_j, evaluation.host.time_s,
        evaluation.cim_host.energy_j, evaluation.cim_host.time_s,
    )
    for out in sorted(outputs):
        digest.add(np.ascontiguousarray(outputs[out]).tobytes())


def measure(seed: int, seconds: float, traced: bool) -> Outcome:
    """Set up ``SETUPS`` times, then run ``ITEMS_PER_SECOND * seconds``
    items (whole Latin-square cycles of 64)."""
    saved: list = []
    recorder = spans.Recorder(root="bench.item") if traced else None
    try:
        out = _measure(seed, seconds, recorder, saved)
    finally:
        spans.restore(saved)
    if recorder:
        out.spans = recorder.spans
    return out


def _measure(seed, seconds, recorder, saved) -> Outcome:
    from repro.codegen.executor import OffloadExecutor
    from repro.compiler.driver import TdoCimCompiler

    compile_s, simulate_s = spans.new_sink(), spans.new_sink()
    spans.install_timer(TdoCimCompiler, "compile", compile_s, saved)
    spans.install_timer(OffloadExecutor, "run", simulate_s, saved)

    setups = []
    host = HostSpeed()
    for _ in range(SETUPS):
        start = time.perf_counter()
        sweep = Sweep()
        setups.append(time.perf_counter() - start)
        host.probe()
    host.end_setup()
    del compile_s[:], simulate_s[:]
    if recorder:
        spans.install(
            recorder, layers.compiler_table() + layers.simulator_table(), saved
        )
        recorder.reset()

    stream = ItemStream(seed)
    cache0 = (sweep.cache.hits, sweep.cache.misses)
    out = Outcome(host=host, setups=setups)
    digest = Digest()
    latencies, energy_gain, edp_gain, sim_time_us, energy_nj = [], [], [], [], []
    counts = dict.fromkeys(
        ("gemv", "writes", "macs", "dma", "offload_instr"), 0
    )
    detected = offloaded = 0
    misses_all = True
    cycle = LEVELS * len(stream.names)
    total = max(PREFIX_ITEMS, round(ITEMS_PER_SECOND * seconds / cycle) * cycle)
    probing = 0.0
    begin = time.perf_counter()
    for index in range(total):
        if index % cycle == 0:      # once per Latin-square cycle, untimed
            mark = time.perf_counter()
            host.probe()
            probing += time.perf_counter() - mark
        name, params, array_seed = next(stream)
        start = time.perf_counter()
        if recorder:
            recorder.request_id = index
            recorder.enter("bench.item")
        evaluation, outputs, correct, missed = sweep.run_item(
            name, params, array_seed, recorder
        )
        if recorder:
            recorder.exit()
        latencies.append(time.perf_counter() - start)
        misses_all &= missed
        out.attempted += 1
        out.failed += not correct
        if index < PREFIX_ITEMS:
            _digest_item(digest, name, params, evaluation, outputs)
            energy_gain.append(evaluation.energy_improvement)
            edp_gain.append(evaluation.edp_improvement)
            sim_time_us.append(evaluation.cim_time_s * 1e6)
            energy_nj.append(evaluation.cim_energy_j * 1e9)
            report = evaluation.cim
            counts["gemv"] += report.gemv_count
            counts["writes"] += report.crossbar_cell_writes
            counts["macs"] += report.accelerator_macs
            counts["dma"] += report.dma_bytes
            counts["offload_instr"] += report.offload_instructions
            detected += evaluation.compilation.report.detected_kernels
            offloaded += evaluation.compilation.report.offloaded_kernels
    elapsed = time.perf_counter() - begin - probing

    out.checks = {
        "outputs_match_numpy": out.failed == 0,
        "every_compile_missed": misses_all,
    }
    out.digest = digest.hexdigest()
    out.e2e = {
        "setup_s": statistics.median(setups),
        "throughput_rps": out.attempted / elapsed,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "compile_ms_p50": percentile(compile_s, 50) * 1e3,
        "simulate_ms_p50": percentile(simulate_s, 50) * 1e3,
        "sim_energy_gain_geomean": geometric_mean(energy_gain),
        "sim_edp_gain_geomean": geometric_mean(edp_gain),
        "sim_latency_p99_us": percentile(sim_time_us, 99),
        "sim_energy_per_request_nj": statistics.fmean(energy_nj),
    }
    out.extra = {
        "failed_fraction": (out.failed / out.attempted, "ratio"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
    }
    n = PREFIX_ITEMS
    hits = sweep.cache.hits - cache0[0]
    lookups = hits + sweep.cache.misses - cache0[1]
    out.layers = {
        "hw.gemv_count": counts["gemv"] / n,
        "hw.cell_writes": counts["writes"] / n,
        "hw.macs": counts["macs"] / n,
        "hw.dma_bytes": counts["dma"] / n,
        "host.offload_instructions": counts["offload_instr"] / n,
        "compiler.offloaded_fraction": offloaded / detected,
        "compiler.cache_hit_ratio": hits / lookups,
        "compiler.cache_lookups": lookups / out.attempted,
    }
    if recorder:
        _traced_layers(out, recorder, elapsed)
    return out


def _traced_layers(out: Outcome, recorder, elapsed: float) -> None:
    """Per-item self time of every layer, and the ledger that adds up to
    the measured wall time."""
    names = (
        layers.COMPILER_LAYERS + layers.SIMULATOR_LAYERS
        + ("bench.inputs", "bench.host_baseline", "bench.check", "bench.item")
    )
    sums = recorder.layer_rows(names)
    items = len(recorder.rows)
    per_item_ms = {name: sums[name] / items * 1e3 for name in names}
    for name in layers.COMPILER_LAYERS + layers.SIMULATOR_LAYERS:
        out.layers[layers.metric_name(name, "ms")] = per_item_ms[name]
    total_ms = elapsed / items * 1e3
    out.ledger = [(name, per_item_ms[name]) for name in names]
    out.ledger.append(("unattributed", total_ms - sum(per_item_ms.values())))
    out.ledger_total_ms = total_ms
