"""DMA engine: moves operand data between shared memory and the CIM tile.

The accelerator accesses the shared global memory exclusively through its
DMA unit with un-cacheable requests (Section II-E), which keeps it coherent
with the host without hardware snooping.  The model charges a per-byte
energy and a bandwidth-limited latency per transfer and keeps aggregate
counters for the evaluation layer.
"""

from __future__ import annotations

import numpy as np

from repro.hw.energy import CimEnergyModel


class DMAEngine:
    """Bandwidth- and energy-accounted shared-memory access."""

    def __init__(self, memory, energy_model: CimEnergyModel | None = None):
        """``memory`` is any object with ``read(addr, size)`` and
        ``write(addr, bytes)`` methods (see :class:`repro.system.memory`)."""
        self.memory = memory
        self.energy_model = energy_model or CimEnergyModel()
        self.total_bytes = 0
        self.total_energy_j = 0.0
        self.total_time_s = 0.0

    # ------------------------------------------------------------------
    def read(self, address: int, size_bytes: int) -> bytes:
        """Fetch *size_bytes* from shared memory into the accelerator."""
        payload = self.memory.read(address, size_bytes)
        self._account(size_bytes)
        return payload

    def write(self, address: int, payload: bytes | np.ndarray) -> int:
        """Store accelerator data back to shared memory."""
        data = bytes(np.asarray(payload, dtype=np.uint8).tobytes()) if isinstance(
            payload, np.ndarray
        ) else bytes(payload)
        self.memory.write(address, data)
        self._account(len(data))
        return len(data)

    def read_array(self, address: int, count: int, dtype=np.float32) -> np.ndarray:
        """Read a typed array from shared memory."""
        dtype = np.dtype(dtype)
        raw = self.read(address, count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()

    def write_array(self, address: int, array: np.ndarray) -> int:
        return self.write(address, np.ascontiguousarray(array).view(np.uint8).ravel())

    # ------------------------------------------------------------------
    def _account(self, size_bytes: int) -> None:
        energy = size_bytes * self.energy_model.dma_energy_per_byte_j
        duration = size_bytes / self.energy_model.dma_bandwidth_bytes_per_s
        self.total_bytes += size_bytes
        self.total_energy_j += energy
        self.total_time_s += duration

    def reset_stats(self) -> None:
        self.total_bytes = 0
        self.total_energy_j = 0.0
        self.total_time_s = 0.0
