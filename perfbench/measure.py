"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import Sequence


def decile_growth(values: Sequence[float]) -> float:
    """Mean of the last tenth of *values* over the mean of the first tenth."""
    tenth = max(1, len(values) // 10)
    return statistics.fmean(values[-tenth:]) / statistics.fmean(values[:tenth])


#: Median time of one :func:`yardstick` probe inside the workloads' runs
#: on a quiet 2-vCPU AMD EPYC VM, in seconds.  Only the ratio between runs
#: matters; the constant keeps the adjusted figures close to the raw ones
#: on that machine.
YARDSTICK_REF_S = 0.00145
#: Entries of the yardstick's dict; it also walks half as many objects.
YARDSTICK_ENTRIES = 12_000


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _yardstick_data():
    """A dict and a list of small objects, visited in a seeded random
    order.  Built when this module is first imported, before the program
    is, so the program cannot change where they lie in memory."""
    rng = random.Random(0)
    table = {key: key for key in range(YARDSTICK_ENTRIES)}
    keys = list(table)
    rng.shuffle(keys)
    nodes = [_Node(value) for value in range(YARDSTICK_ENTRIES // 2)]
    rng.shuffle(nodes)
    return table, keys, nodes


_YARDSTICK_DATA = _yardstick_data()


def yardstick() -> float:
    """Time one fixed piece of pure-Python work that touches none of the
    program's objects: look up every key of a dict and read every object
    of a list, both in random order.

    Like the program, it chases pointers through Python objects, so it
    slows down with the program when other tenants of the host contend
    for its caches.  Over five minutes of alternating sweep items and
    yardstick calls on a 2-vCPU AMD EPYC VM, the two correlated at 0.90
    (20-item windows), and dividing by the yardstick halved the
    variation of the sweep items' time (log standard deviation 0.108 to
    0.057); integer arithmetic alone correlated at 0.58."""
    table, keys, nodes = _YARDSTICK_DATA
    start = time.perf_counter()
    total = 0
    for key in keys:
        total += table[key]
    for node in nodes:
        total += node.value
    return time.perf_counter() - start


class HostSpeed:
    """How slow the shared host runs for this process during one run.

    Other tenants of a small shared VM slow a process by up to 1.5x for
    minutes at a time.  The workloads call :meth:`probe` in the measuring
    process between units of work, outside every timed span and while
    the program is idle, so the yardstick runs on the same virtual CPU
    under the same contention as the program.  :attr:`slowdown` is the
    median yardstick time over its reference; ``run.py`` divides the time
    metrics by it and multiplies the rates, so runs made in slow and
    quiet minutes compare."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: How many of the first samples belong to the set-ups.
        self.setups = 0

    def probe(self) -> None:
        self.samples.append(yardstick())

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples[self.setups:]) / YARDSTICK_REF_S

    def end_setup(self) -> None:
        """Mark the probes so far as the set-ups' own, one per set-up."""
        self.setups = len(self.samples)

    def setup_adjusted(self, setups: Sequence[float]) -> float:
        """Median set-up time at the reference speed.  One set-up lasts
        only tens of milliseconds, so each is scaled by the probe made
        right after it."""
        return statistics.median(
            t * YARDSTICK_REF_S / y
            for t, y in zip(setups, self.samples[:self.setups], strict=True)
        )


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    child (the gateway's worker), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Digest:
    """Order-sensitive SHA-256 over simulated statistics.

    Floats are hashed by their exact IEEE-754 bytes, so two runs that
    simulate the same thing print the same digest and any change to a
    simulated value, however small, changes it."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, float):
                self._hash.update(b"f" + struct.pack("<d", value))
            elif isinstance(value, (bytes, bytearray, memoryview)):
                self._hash.update(b"b" + hashlib.sha256(value).digest())
            else:
                self._hash.update(b"s" + repr(value).encode() + b"\0")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    #: Operations attempted in the measured phase, and how many of them
    #: failed (error, rejection or wrong output).
    attempted: int = 0
    failed: int = 0
    #: Named output checks; the run is correct only if all hold.
    checks: dict = field(default_factory=dict)
    #: End-to-end metric name -> value (the ``BENCHMARK.json`` names).
    e2e: dict = field(default_factory=dict)
    #: Printed-only metrics (name -> (value, unit)): they are 0 on a
    #: healthy run, so they are reported but not bounded.
    extra: dict = field(default_factory=dict)
    #: Per-layer metric name -> value (traced runs).
    layers: dict = field(default_factory=dict)
    #: Per-operation time ledger of the traced run: (layer, ms per op),
    #: summing with the ``unattributed`` entry to ``ledger_total_ms``.
    ledger: list = field(default_factory=list)
    ledger_total_ms: float = 0.0
    #: Digest of every simulated statistic the simulated metrics cover.
    digest: str = ""
    #: Wall time of each set-up.
    setups: list = field(default_factory=list)
    #: Host speed over the run, sampled between units of work.
    host: HostSpeed = field(default_factory=HostSpeed)
    notes: list = field(default_factory=list)
    #: Raw spans of the traced run, written out when the run ends.
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())
