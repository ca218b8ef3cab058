"""Energy and event accounting shared by all hardware components.

Every hardware model charges into a shared :class:`EnergyLedger` (joules
per named category, e.g. ``cim.crossbar_write``) and a shared
:class:`StatCounter` (integer event counts, e.g. ``cim.gemv_ops``); the
evaluation layer slices these into the paper's host/accelerator totals.

Accounting invariant: energy and counters are charged where the *work*
happens (one charge per physical operation), never where the *time* is
scheduled.  That is what keeps the aggregate reports bit-identical across
dispatch strategies — batched vs. sequential GEMV dispatch, and one CIM
tile vs. many (:mod:`repro.hw.scheduler` redistributes phases in time but
triggers the exact same sequence of charges).
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: ``sum()`` over floats compensates its additions (Neumaier) from 3.12 on.
_SUM_IS_COMPENSATED = sys.version_info >= (3, 12)


class EnergyLedger:
    """Accumulates energy per named category (in joules).

    Components charge energy with :meth:`add`; reports group categories into
    host-side and accelerator-side totals.  The ledger is deliberately simple
    — a dictionary with helpers — so every component can share one instance
    and the evaluation layer can slice the result any way it needs.
    """

    def __init__(self) -> None:
        self._joules: dict[str, float] = defaultdict(float)

    def add(self, category: str, joules: float) -> None:
        if joules < 0:
            raise ValueError(f"negative energy charge for {category!r}: {joules}")
        self._joules[category] += joules

    def get(self, category: str) -> float:
        return self._joules.get(category, 0.0)

    def total(self, categories: Iterable[str] | None = None) -> float:
        if categories is None:
            return sum(self._joules.values())
        return sum(self._joules.get(c, 0.0) for c in categories)

    def categories(self) -> list[str]:
        return sorted(self._joules)

    def as_dict(self) -> dict[str, float]:
        return dict(self._joules)

    def merge(self, other: "EnergyLedger") -> None:
        for category, joules in other._joules.items():
            self._joules[category] += joules

    def reset(self) -> None:
        self._joules.clear()

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.3e}J" for k, v in sorted(self._joules.items()))
        return f"EnergyLedger({parts})"


class RunningSum:
    """O(1) running value of the builtin ``sum()`` over the floats added
    so far, bit for bit, so a total kept on the fly equals the ``sum()``
    over the full history it replaces.  Like ``sum()`` it is the int ``0``
    while empty.  It mirrors CPython's float loop: plain left-to-right
    addition before 3.12, Neumaier-compensated addition from 3.12 on."""

    __slots__ = ("_sum", "_compensation")

    def __init__(self) -> None:
        self._sum: float = 0
        self._compensation = 0.0

    def add(self, x: float) -> None:
        if _SUM_IS_COMPENSATED:
            s = self._sum
            t = s + x
            if abs(s) >= abs(x):
                self._compensation += (s - t) + x
            else:
                self._compensation += (x - t) + s
            self._sum = t
        else:
            self._sum += x

    @property
    def value(self) -> float:
        c = self._compensation
        # Like sum(): skip a zero or non-finite compensation, so neither a
        # negative zero nor an overflowed total turns into something else.
        if c and math.isfinite(c):
            return self._sum + c
        return self._sum


class ExactSum:
    """Exact running sum of finite floats in O(1) memory: Shewchuk's
    non-overlapping partials (a few dozen floats at most), whose exact sum
    is the exact sum of everything added.  :attr:`value` is therefore
    ``math.fsum`` of the full history, without keeping the history."""

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, x: float) -> None:
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    @property
    def value(self) -> float:
        return math.fsum(self._partials)


class StatCounter:
    """Named integer event counters (writes, GEMVs, DMA bytes, ...)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, count: int = 1) -> None:
        self._counts[name] += int(count)

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def merge(self, other: "StatCounter") -> None:
        for name, count in other._counts.items():
            self._counts[name] += count

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"StatCounter({parts})"


@dataclass
class ExecutionStats:
    """Combined energy, counters, and elapsed time for one simulated run."""

    energy: EnergyLedger = field(default_factory=EnergyLedger)
    counters: StatCounter = field(default_factory=StatCounter)
    elapsed_seconds: float = 0.0

    def merge(self, other: "ExecutionStats") -> None:
        self.energy.merge(other.energy)
        self.counters.merge(other.counters)
        self.elapsed_seconds += other.elapsed_seconds
