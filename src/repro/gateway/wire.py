"""Typed request/response schema of the wall-clock gateway.

Requests and responses are dataclasses that travel as one binary frame
each::

    prefix   b"CIMW" magic | version (u8) | header length (u32, LE)
    header   UTF-8 JSON: {"fields": {...scalars...},
                          "arrays": [[name, dtype, shape, nbytes, sha256],
                                     ...]}
    payload  the raw bytes of every array, back to back, in header order

Scalars (ids, tenant, kernel source, params, usage counters) are JSON,
which round-trips doubles exactly; arrays are their C-order bytes, so
they round-trip bit for bit (NaN payloads and ``-0.0`` included) with
no text encoding on the way.  The trace layer keeps its own JSON+base64
array encoding (:func:`repro.trace.schema.encode_array`); recorded
``submit`` events become gateway requests through
:func:`~repro.gateway.loadgen.trace_workload`, which decodes them.

The frame crosses a process boundary (gateway process → pool worker →
gateway process), so decoding is defensive: a bad magic or version, a
truncated header or payload, an array whose dtype, shape and nbytes
disagree, a payload whose bytes do not match their sha256, and trailing
bytes all raise :class:`WireFormatError` before any state is touched —
a worker never crashes on a bad frame, it answers with a dead letter —
and every array is verified against its content hash on both sides of
the pipe.

``GatewayRequest.fault`` is the gateway's deterministic fault-injection
seam (the wall-clock analogue of the fleet's seeded
:class:`~repro.fleet.faults.FaultPlan`): a marker that makes the worker
process die at a precise point of the request's service.  The pool
strips the marker when it retries the request on a surviving worker, so
one marker means exactly one worker death.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

#: Fault markers a request may carry (see module docstring).
#:
#: * ``die-before-dispatch`` — the worker process exits before any work
#:   happens (a kill while the request sat at the head of its queue);
#: * ``die-mid-request`` — the worker performs the full dispatch (the
#:   device physically works) and exits before the response leaves the
#:   process (a kill mid-request: the computed outputs are lost);
#: * ``hang`` — the worker wedges before any work happens and never
#:   answers (the shape the gateway's hang watchdog must catch);
#: * ``slow`` / ``slow:<seconds>`` — the worker stalls for
#:   :data:`SLOW_FAULT_DELAY_S` (or the given delay) and then serves the
#:   request normally (deadline pressure without losing work);
#: * ``corrupt-frame`` — the worker serves the request and then ships a
#:   deliberately truncated response frame (undecodable), the
#:   byzantine shape the gateway's defensive decoding must absorb.
FAULT_MARKERS = (
    "die-before-dispatch",
    "die-mid-request",
    "hang",
    "slow",
    "corrupt-frame",
)

#: Default stall of a plain ``slow`` fault marker (seconds).
SLOW_FAULT_DELAY_S = 0.25


def validate_fault_marker(fault: Optional[str]) -> None:
    """Raise :class:`WireFormatError` for an unknown fault marker
    (``None``, a known marker, or ``slow:<seconds>`` are accepted)."""
    if fault is None or fault in FAULT_MARKERS:
        return
    if isinstance(fault, str) and fault.startswith("slow:"):
        try:
            delay_s = float(fault[len("slow:"):])
        except ValueError:
            delay_s = -1.0
        if delay_s >= 0.0:
            return
    raise WireFormatError(
        f"request: unknown fault marker {fault!r} (known: {FAULT_MARKERS}, "
        "or 'slow:<seconds>')"
    )


def slow_fault_delay_s(fault: Optional[str]) -> Optional[float]:
    """The stall a ``slow`` fault marker requests, or ``None`` for other
    markers."""
    if fault == "slow":
        return SLOW_FAULT_DELAY_S
    if fault is not None and fault.startswith("slow:"):
        return float(fault[len("slow:"):])
    return None

#: Exit code a worker uses for injected deaths (mirrors SIGKILL's 128+9).
FAULT_EXIT_CODE = 137


class WireFormatError(RuntimeError):
    """A gateway wire frame violates the format: a bad magic or version,
    a truncated or trailing byte, an inconsistent array description, a
    payload whose bytes do not match their recorded sha256, a missing
    field, an unknown status or fault marker.  Raised by the decoders
    before any state is touched — a bad frame is rejected whole."""


#: Frame prefix: magic, format version, JSON header length.
FRAME_PREFIX = struct.Struct("<4sBI")
FRAME_MAGIC = b"CIMW"
FRAME_VERSION = 1

#: Array kinds that travel as raw bytes: bool, signed/unsigned integer,
#: float and complex (never object arrays, whose bytes are pointers).
_ARRAY_KINDS = frozenset("biufc")


def _plain(value):
    """JSON ``default`` hook: numpy scalars become native Python numbers."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"{type(value).__name__} is not JSON-serializable")


_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_plain)


def encode_frame(fields: Mapping, arrays: Mapping[str, np.ndarray]) -> bytes:
    """One binary frame: *fields* (JSON scalars) in the header, each array
    of *arrays* described there as ``[name, dtype, shape, nbytes,
    sha256]`` and carried as raw C-order bytes."""
    specs = []
    payloads = []
    for name, value in arrays.items():
        data = np.asarray(value)
        if data.dtype.kind not in _ARRAY_KINDS:
            raise WireFormatError(
                f"array {name!r}: dtype {data.dtype} cannot travel on the wire"
            )
        if not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        specs.append([name, data.dtype.str, data.shape, data.nbytes,
                      hashlib.sha256(data).hexdigest()])
        payloads.append(data)
    try:
        header = _HEADER_ENCODER.encode(
            {"fields": fields, "arrays": specs}
        ).encode("utf-8")
    except TypeError as exc:
        raise WireFormatError(f"frame header: {exc}") from exc
    prefix = FRAME_PREFIX.pack(FRAME_MAGIC, FRAME_VERSION, len(header))
    return b"".join([prefix, header, *payloads])


def decode_frame(frame, where: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Split one binary frame into its scalar fields and its arrays,
    verifying every length and every array's sha256; raises
    :class:`WireFormatError` on any inconsistency."""
    try:
        view = memoryview(frame).cast("B")
    except TypeError:
        raise WireFormatError(
            f"{where}: frame must be bytes, got {type(frame).__name__}"
        ) from None
    size = view.nbytes
    if size < FRAME_PREFIX.size:
        raise WireFormatError(
            f"{where}: truncated frame ({size} bytes, the prefix alone "
            f"needs {FRAME_PREFIX.size})"
        )
    magic, version, header_len = FRAME_PREFIX.unpack_from(view)
    if magic != FRAME_MAGIC:
        raise WireFormatError(f"{where}: bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise WireFormatError(
            f"{where}: unsupported frame version {version} "
            f"(this build speaks {FRAME_VERSION})"
        )
    offset = FRAME_PREFIX.size + header_len
    if offset > size:
        raise WireFormatError(
            f"{where}: truncated frame header ({size - FRAME_PREFIX.size} "
            f"of {header_len} bytes)"
        )
    try:
        header = json.loads(str(view[FRAME_PREFIX.size:offset], "utf-8"))
    except (ValueError, RecursionError) as exc:  # incl. UnicodeDecodeError
        raise WireFormatError(f"{where}: corrupt frame header ({exc})") from exc
    if (
        not isinstance(header, dict)
        or not isinstance(header.get("fields"), dict)
        or not isinstance(header.get("arrays"), list)
    ):
        raise WireFormatError(
            f"{where}: frame header must hold a 'fields' object and an "
            "'arrays' list"
        )
    arrays: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        name, dtype, shape, nbytes, digest = _array_spec(spec, where, arrays)
        end = offset + nbytes
        if end > size:
            raise WireFormatError(
                f"{where}: truncated payload of array {name!r} "
                f"({max(size - offset, 0)} of {nbytes} bytes)"
            )
        raw = view[offset:end]
        if hashlib.sha256(raw).hexdigest() != digest:
            raise WireFormatError(
                f"{where}: array {name!r} bytes do not match their "
                "recorded sha256"
            )
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        offset = end
    if offset != size:
        raise WireFormatError(
            f"{where}: {size - offset} trailing bytes after the last array"
        )
    return header["fields"], arrays


def _array_spec(spec, where: str, seen: Mapping):
    """Validate one ``[name, dtype, shape, nbytes, sha256]`` array
    description of a frame header."""
    try:
        name, dtype_str, shape, nbytes, digest = spec
        shape = tuple(shape)
    except (TypeError, ValueError):
        raise WireFormatError(
            f"{where}: malformed array description {spec!r}"
        ) from None
    if not isinstance(name, str) or name in seen:
        raise WireFormatError(f"{where}: bad or duplicate array name {name!r}")
    try:
        dtype = np.dtype(dtype_str) if isinstance(dtype_str, str) else None
    except TypeError:
        dtype = None
    if dtype is None or dtype.kind not in _ARRAY_KINDS:
        raise WireFormatError(
            f"{where} array {name!r}: dtype {dtype_str!r} cannot travel on the wire"
        )
    if not all(type(dim) is int and dim >= 0 for dim in shape):
        raise WireFormatError(f"{where} array {name!r}: bad shape {list(shape)!r}")
    if type(nbytes) is not int or nbytes != dtype.itemsize * math.prod(shape):
        raise WireFormatError(
            f"{where} array {name!r}: nbytes {nbytes!r} disagrees with dtype "
            f"{dtype_str} and shape {list(shape)}"
        )
    if not isinstance(digest, str):
        raise WireFormatError(f"{where} array {name!r}: sha256 must be a hex string")
    return name, dtype, shape, nbytes, digest


def _require(mapping: Mapping, key: str, where: str):
    try:
        return mapping[key]
    except KeyError:
        raise WireFormatError(f"{where}: missing field {key!r}") from None


# ----------------------------------------------------------------------
@dataclass
class GatewayRequest:
    """One offload request on the wire (gateway → worker)."""

    request_id: int
    tenant: str
    source: str                        # mini-C kernel source
    params: dict[str, float] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: Execution attempt (1 = first dispatch; bumped by pool retries).
    attempt: int = 1
    #: Deterministic fault-injection marker (see :data:`FAULT_MARKERS`).
    fault: Optional[str] = None
    #: Absolute gateway-clock deadline (seconds on the gateway's
    #: ``WallClock``; ``None`` = no deadline).  The gateway sheds the
    #: request if the deadline passes before dispatch and fails it with
    #: status ``deadline-exceeded`` if it expires in flight.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise WireFormatError("request: tenant name must be non-empty")
        if not isinstance(self.source, str) or not self.source.strip():
            raise WireFormatError("request: kernel source must be a non-empty string")
        validate_fault_marker(self.fault)
        if self.deadline_s is not None:
            deadline_s = float(self.deadline_s)
            if not math.isfinite(deadline_s):
                raise WireFormatError(
                    f"request: deadline_s must be finite, got {self.deadline_s!r}"
                )
            self.deadline_s = deadline_s

    # -- wire codec -----------------------------------------------------
    def to_json(self) -> bytes:
        """This request as one binary wire frame: a UTF-8 JSON header
        (the scalar fields, each array's dtype, shape, nbytes and sha256)
        followed by the raw array bytes (see :func:`encode_frame`)."""
        return encode_frame(
            {
                "request_id": self.request_id,
                "tenant": self.tenant,
                "source": self.source,
                "params": self.params,
                "attempt": self.attempt,
                "fault": self.fault,
                "deadline_s": self.deadline_s,
            },
            self.arrays,
        )

    @classmethod
    def from_json(cls, frame: bytes) -> "GatewayRequest":
        """Decode one binary frame (JSON header followed by raw array
        bytes); raises :class:`WireFormatError` on any malformed frame."""
        fields, arrays = decode_frame(frame, "request")
        try:
            return cls(
                request_id=int(_require(fields, "request_id", "request")),
                tenant=_require(fields, "tenant", "request"),
                source=_require(fields, "source", "request"),
                params=dict(_require(fields, "params", "request")),
                arrays=arrays,
                attempt=int(fields.get("attempt", 1)),
                fault=fields.get("fault"),
                deadline_s=fields.get("deadline_s"),
            )
        except (TypeError, ValueError) as exc:
            raise WireFormatError(f"request: malformed field ({exc})") from exc


# ----------------------------------------------------------------------
#: Terminal statuses a response may carry: the serving tier's vocabulary
#: plus ``deadline-exceeded`` (the request's deadline passed before
#: dispatch, or expired while it was in flight).
RESPONSE_STATUSES = ("completed", "failed", "rejected", "deadline-exceeded")

#: Per-request measured-usage counters shipped back over the wire.  These
#: are exactly the billing fields of
#: :class:`~repro.serve.accounting.RequestUsage` that are a pure function
#: of the request (independent of clock mode), which is what the
#: wall-clock vs VirtualClock differential compares bit-for-bit.
USAGE_FIELDS = (
    "service_s",
    "host_energy_j",
    "offload_energy_j",
    "accelerator_energy_j",
    "crossbar_cell_writes",
    "crossbar_write_ops",
    "gemv_count",
    "macs",
    "dma_bytes",
)


@dataclass
class GatewayResponse:
    """One served request on the wire (worker → gateway)."""

    request_id: int
    tenant: str
    status: str                        # "completed" | "failed" | "rejected"
    worker_id: int
    attempt: int = 1
    reason: Optional[str] = None       # failure/rejection reason
    #: Full result arrays of a completed request (bit-identity currency).
    result: dict[str, np.ndarray] = field(default_factory=dict)
    #: Measured billing counters of the dispatch (see :data:`USAGE_FIELDS`).
    usage: dict[str, float] = field(default_factory=dict)
    #: Host energy of the lease-buffer releases (ledger housekeeping).
    housekeeping_energy_j: list[float] = field(default_factory=list)
    #: Worker-cumulative physical accelerator totals *after* this request
    #: (the partition-check currency; survives the worker's death).
    physical: dict[str, float] = field(default_factory=dict)
    #: Shared compile-cache deltas of this request (hits, misses).
    compile_hits: int = 0
    compile_misses: int = 0
    #: Wall-clock milestones, filled in by the gateway (not the worker).
    submitted_s: Optional[float] = None
    dispatched_s: Optional[float] = None
    completed_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise WireFormatError(
                f"response: unknown status {self.status!r} "
                f"(known: {RESPONSE_STATUSES})"
            )

    @property
    def latency_s(self) -> Optional[float]:
        """Real (wall-clock) submit-to-completion latency."""
        if self.completed_s is None or self.submitted_s is None:
            return None
        return self.completed_s - self.submitted_s

    # -- wire codec -----------------------------------------------------
    def to_json(self) -> bytes:
        """This response as one binary wire frame: a UTF-8 JSON header
        (the scalar fields, each result array's dtype, shape, nbytes and
        sha256) followed by the raw array bytes (see
        :func:`encode_frame`).  The gateway-side milestones never travel."""
        return encode_frame(
            {
                "request_id": self.request_id,
                "tenant": self.tenant,
                "status": self.status,
                "worker_id": self.worker_id,
                "attempt": self.attempt,
                "reason": self.reason,
                "usage": self.usage,
                "housekeeping_energy_j": self.housekeeping_energy_j,
                "physical": self.physical,
                "compile_hits": self.compile_hits,
                "compile_misses": self.compile_misses,
            },
            self.result,
        )

    @classmethod
    def from_json(cls, frame: bytes) -> "GatewayResponse":
        """Decode one binary frame (JSON header followed by raw array
        bytes); raises :class:`WireFormatError` on any malformed frame."""
        fields, result = decode_frame(frame, "response")
        try:
            return cls(
                request_id=int(_require(fields, "request_id", "response")),
                tenant=_require(fields, "tenant", "response"),
                status=_require(fields, "status", "response"),
                worker_id=int(_require(fields, "worker_id", "response")),
                attempt=int(fields.get("attempt", 1)),
                reason=fields.get("reason"),
                result=result,
                usage=dict(fields.get("usage", {})),
                housekeeping_energy_j=list(fields.get("housekeeping_energy_j", [])),
                physical=dict(fields.get("physical", {})),
                compile_hits=int(fields.get("compile_hits", 0)),
                compile_misses=int(fields.get("compile_misses", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise WireFormatError(f"response: malformed field ({exc})") from exc
