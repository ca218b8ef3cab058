"""One benchmark for the TDO-CIM stack.

    python3 perfbench/run.py --workload polybench-sweep --seed 1 --seconds 30 --trace 0

Runs one workload against the program under ``src/`` (pure Python, no
build step), checks every output, and prints each metric by name with its
unit and whether it is wall/host time or simulated.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

``--trace 1`` measures the workload twice in one process, untraced and
then traced on the same seed, so it can report the tracing overhead and
take the growth ratios from the untraced pass; the per-layer numbers come
from the traced pass, whose raw spans are written to
``perfbench/out/spans-<workload>-<seed>.jsonl``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
from pathlib import Path

# First, so that the yardstick's data is laid out before the program loads.
import measure  # noqa: F401

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "polybench-sweep": "sweep",
    "fleet-storm": "fleet_storm",
    "gateway-poisson": "gateway_poisson",
}

#: What each end-to-end metric measures: wall clock, host CPU time of the
#: simulator, or the simulated device (compared commit to commit only).
KIND = {
    "setup_s": "wall",
    "throughput_rps": "wall",
    "latency_p50_ms": "wall",
    "peak_rss_mb": "host",
    "compile_ms_p50": "host",
    "simulate_ms_p50": "host",
    "sim_energy_gain_geomean": "simulated",
    "sim_edp_gain_geomean": "simulated",
    "sim_latency_p99_us": "simulated",
    "sim_energy_per_request_nj": "simulated",
}

#: Time metrics are divided by the run's host slowdown and rates
#: multiplied by it (``measure.HostSpeed``; each set-up by the probe made
#: right after it), so that runs made while other tenants slow the shared
#: host compare with runs made in quiet minutes.
HOST_ADJUSTED = {
    "setup_s": -1,
    "throughput_rps": 1,
    "latency_p50_ms": -1,
    "compile_ms_p50": -1,
    "simulate_ms_p50": -1,
}

#: Ratios that must come from the untraced pass: per-span tracing cost
#: is fixed per call and would dilute them.
UNTRACED_RATIOS = ("serve.cost_growth", "worker.serve_one_growth")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _adjusted(run) -> dict:
    """The run's end-to-end metrics at the yardstick's reference speed."""
    adjusted = {"setup_s": run.host.setup_adjusted(run.setups)}
    slowdown = run.host.slowdown
    for name, value in run.e2e.items():
        adjusted.setdefault(name, value * slowdown ** HOST_ADJUSTED.get(name, 0))
    return adjusted


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            f"perfbench: no program to measure (need {ROOT / 'src' / 'repro'} "
            f"and {spec_path})",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    # One thread per process: on a small shared machine a BLAS thread pool
    # only adds run-to-run noise.  Must be set before NumPy is imported.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(ROOT / "src"))
    module = importlib.import_module(WORKLOADS[args.workload])
    # Keep the collector from re-scanning the import-time objects (the
    # interpreter, NumPy, the program's modules) in every full collection
    # of the timed phase; the program's own objects are collected as usual.
    gc.collect()
    gc.freeze()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    untraced = module.measure(args.seed, args.seconds, False)
    runs = [untraced]
    if args.trace:
        runs.append(module.measure(args.seed, args.seconds, True))
    outcome = runs[-1]
    if args.trace:
        # Tracing must not change anything simulated: the same seed has
        # to give the same digest with and without the wrappers.
        outcome.checks["digest_repeats"] = outcome.digest == untraced.digest
    for run in runs:
        checks = ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in run.checks.items())
        print(f"  attempted {run.attempted}, failed {run.failed}: {checks}")
        print(f"  simulated digest {run.digest}")
        print(f"  host slowdown {run.host.slowdown:.4f} "
              f"(median of {len(run.host.samples)} yardstick probes over its reference)")
    e2e = [_adjusted(run) for run in runs]
    print("  end-to-end metrics (untraced; times and rates at the yardstick's "
          "reference speed, raw value in brackets):")
    for entry in spec["end_to_end"]:
        name = entry["name"]
        raw = f" (raw {_fmt(untraced.e2e[name])})" if name in HOST_ADJUSTED else ""
        print(f"    {name:28s} {_fmt(e2e[0][name]):>12s} {entry['unit']:6s} "
              f"{KIND[name]}, {entry['better']} is better{raw}")
    for name, (value, unit) in untraced.extra.items():
        print(f"    {name:28s} {_fmt(value):>12s} {unit:6s} printed only, not bounded")

    if args.trace:
        layers = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
        layers.update(outcome.layers)
        for name in UNTRACED_RATIOS:
            if name in untraced.layers:
                layers[name] = untraced.layers[name]
        unattributed = dict(outcome.ledger)["unattributed"]
        layers["ledger.unattributed_share"] = unattributed / outcome.ledger_total_ms
        layers["trace.overhead_pct"] = 100.0 * (
            e2e[0]["throughput_rps"] / e2e[-1]["throughput_rps"] - 1.0
        )
        print(f"  layer ledger (traced), ms per operation, "
              f"adds up to {outcome.ledger_total_ms:.6g} ms:")
        for name, value in outcome.ledger:
            share = 100.0 * value / outcome.ledger_total_ms
            print(f"    {name:28s} {value:12.6f} ms {share:6.2f}%")
        print(f"    sum of the rows            {sum(v for _, v in outcome.ledger):12.6f} ms")
        for note in outcome.notes:
            print(f"  note: {note}")
        print(f"  tracing overhead {layers['trace.overhead_pct']:+.1f}% "
              f"(adjusted throughput {e2e[0]['throughput_rps']:.6g}/s untraced, "
              f"{e2e[-1]['throughput_rps']:.6g}/s traced)")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as handle:
            for span in outcome.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
        print(f"  {sum(s is not None for s in outcome.spans)} raw spans written to "
              f"{span_file.relative_to(ROOT)}")
        print("  per-layer metrics:")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in layers.items():
            print(f"    {name:28s} {_fmt(value):>12s} {units[name]}")
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        metrics = {
            m["name"]: {"value": e2e[0][m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": all(run.correct for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
