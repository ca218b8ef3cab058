"""Unit tests for the gateway wire schema.

The wire format crosses a process boundary, so the contract under test
is defensive bit-exactness: arrays round-trip byte-for-byte as the raw
payload of the binary frame, floats round-trip exactly through its JSON
header, and every malformed frame is rejected whole with a
:class:`~repro.gateway.wire.WireFormatError` before any state is touched.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.wire import (
    FAULT_MARKERS,
    FRAME_PREFIX,
    GatewayRequest,
    GatewayResponse,
    RESPONSE_STATUSES,
    USAGE_FIELDS,
    WireFormatError,
    encode_frame,
)

SOURCE = "void k(int N, float x[N]) { for (int i = 0; i < N; i++) x[i] += 1.0; }"


def make_request(**overrides) -> GatewayRequest:
    fields = dict(
        request_id=7,
        tenant="acme",
        source=SOURCE,
        params={"N": 4, "scale": 0.1},
        arrays={"x": np.arange(4, dtype=np.float32)},
    )
    fields.update(overrides)
    return GatewayRequest(**fields)


def split_frame(frame: bytes) -> tuple[dict, bytes]:
    """A frame's JSON header (parsed) and its raw array payload."""
    _, _, header_len = FRAME_PREFIX.unpack_from(frame)
    end = FRAME_PREFIX.size + header_len
    return json.loads(frame[FRAME_PREFIX.size:end]), frame[end:]


def join_frame(header: dict, payload: bytes) -> bytes:
    """Reassemble a frame around a (possibly tampered) header."""
    text = json.dumps(header).encode()
    return FRAME_PREFIX.pack(b"CIMW", 1, len(text)) + text + payload


class TestRequestWire:
    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        arrays = {
            "A": rng.random((5, 3), dtype=np.float32),
            "x": rng.random(3, dtype=np.float64),
        }
        request = make_request(params={"M": 5, "N": 3, "alpha": 0.1 + 0.2}, arrays=arrays)
        decoded = GatewayRequest.from_json(request.to_json())
        assert decoded.request_id == 7
        assert decoded.tenant == "acme"
        assert decoded.source == SOURCE
        assert decoded.params == request.params  # floats exact via JSON repr
        for name, original in arrays.items():
            copy = decoded.arrays[name]
            assert copy.dtype == original.dtype
            assert copy.shape == original.shape
            assert copy.tobytes() == original.tobytes()

    def test_attempt_and_fault_survive_the_wire(self):
        for marker in FAULT_MARKERS:
            decoded = GatewayRequest.from_json(
                make_request(attempt=3, fault=marker).to_json()
            )
            assert decoded.attempt == 3
            assert decoded.fault == marker

    def test_numpy_scalar_params_become_json_native(self):
        request = make_request(params={"N": np.int64(4), "a": np.float32(0.5)})
        header, _ = split_frame(request.to_json())
        assert header["fields"]["params"] == {"N": 4, "a": 0.5}
        decoded = GatewayRequest.from_json(request.to_json())
        assert decoded.params == {"N": 4, "a": 0.5}
        assert type(decoded.params["N"]) is int
        assert type(decoded.params["a"]) is float

    def test_unknown_fault_marker_rejected(self):
        with pytest.raises(WireFormatError, match="fault marker"):
            make_request(fault="die-randomly")

    def test_empty_tenant_and_source_rejected(self):
        with pytest.raises(WireFormatError, match="tenant"):
            make_request(tenant="")
        with pytest.raises(WireFormatError, match="source"):
            make_request(source="   ")

    def test_corrupt_json_rejected(self):
        # Text where a frame belongs fails the magic check.
        with pytest.raises(WireFormatError, match="magic"):
            GatewayRequest.from_json(b"{not json")
        # A well-framed header that is not JSON.
        text = b"{not json"
        frame = FRAME_PREFIX.pack(b"CIMW", 1, len(text)) + text
        with pytest.raises(WireFormatError, match="corrupt frame header"):
            GatewayRequest.from_json(frame)
        with pytest.raises(WireFormatError, match="must be bytes"):
            GatewayRequest.from_json("{not json")

    def test_missing_field_rejected(self):
        header, payload = split_frame(make_request().to_json())
        del header["fields"]["tenant"]
        with pytest.raises(WireFormatError, match="missing field 'tenant'"):
            GatewayRequest.from_json(join_frame(header, payload))

    def test_tampered_payload_hash_rejected(self):
        header, payload = split_frame(make_request().to_json())
        header["arrays"][0][4] = "0" * 64
        with pytest.raises(WireFormatError, match="sha256"):
            GatewayRequest.from_json(join_frame(header, payload))


class TestResponseWire:
    def make_response(self, **overrides) -> GatewayResponse:
        fields = dict(
            request_id=7,
            tenant="acme",
            status="completed",
            worker_id=1,
            result={"y": np.arange(4, dtype=np.float32)},
            usage={name: 1.0 for name in USAGE_FIELDS},
            housekeeping_energy_j=[1e-9, 2e-9],
            physical={"energy_j": 3.5e-8, "macs": 64},
            compile_hits=1,
        )
        fields.update(overrides)
        return GatewayResponse(**fields)

    def test_roundtrip_is_bit_exact(self):
        response = self.make_response(
            usage={name: 0.1 + 0.2 for name in USAGE_FIELDS}
        )
        decoded = GatewayResponse.from_json(response.to_json())
        assert decoded.status == "completed"
        assert decoded.worker_id == 1
        assert decoded.usage == response.usage  # exact float equality
        assert decoded.housekeeping_energy_j == [1e-9, 2e-9]
        assert decoded.physical == response.physical
        assert decoded.compile_hits == 1
        assert (
            decoded.result["y"].tobytes() == response.result["y"].tobytes()
        )

    def test_every_status_roundtrips(self):
        for status in RESPONSE_STATUSES:
            decoded = GatewayResponse.from_json(
                self.make_response(status=status, result={}).to_json()
            )
            assert decoded.status == status

    def test_unknown_status_rejected(self):
        with pytest.raises(WireFormatError, match="unknown status"):
            self.make_response(status="exploded")

    def test_latency_property_needs_both_milestones(self):
        response = self.make_response()
        assert response.latency_s is None
        response.submitted_s = 1.0
        assert response.latency_s is None
        response.completed_s = 1.25
        assert response.latency_s == pytest.approx(0.25)

    def test_milestones_are_gateway_side_only(self):
        # The worker never ships timestamps; the wire frame has none.
        response = self.make_response()
        response.submitted_s = response.completed_s = 1.0
        header, _ = split_frame(response.to_json())
        assert "submitted_s" not in header["fields"]
        assert "completed_s" not in header["fields"]


def _bits(values, dtype) -> np.ndarray:
    """Floats from raw bit patterns (NaN payloads survive only as bits)."""
    uint = {np.float32: np.uint32, np.float64: np.uint64}[dtype]
    return np.array(values, dtype=uint).view(dtype)


ARRAY_DTYPES = st.sampled_from(
    [np.float32, np.float64, np.int32, np.int64, np.uint8, np.bool_, np.complex64]
)


@st.composite
def frames(draw):
    """A valid request frame with one to three small random arrays."""
    arrays = {}
    for index in range(draw(st.integers(1, 3))):
        dtype = np.dtype(draw(ARRAY_DTYPES))
        shape = tuple(draw(st.lists(st.integers(0, 4), max_size=2)))
        size = int(np.prod(shape)) * dtype.itemsize
        raw = draw(st.binary(min_size=size, max_size=size))
        arrays[f"a{index}"] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return make_request(arrays=arrays).to_json()


class TestFrameFormat:
    @settings(max_examples=40, deadline=None)
    @given(frame=frames(), flip=st.integers(1, 255))
    def test_every_truncation_and_payload_flip_is_rejected(self, frame, flip):
        for end in range(len(frame)):
            with pytest.raises(WireFormatError):
                GatewayRequest.from_json(frame[:end])
        header, payload = split_frame(frame)
        start = len(frame) - len(payload)
        for position in range(start, len(frame)):
            tampered = bytearray(frame)
            tampered[position] ^= flip
            with pytest.raises(WireFormatError, match="sha256"):
                GatewayRequest.from_json(bytes(tampered))
        assert GatewayRequest.from_json(frame).arrays.keys() == {
            spec[0] for spec in header["arrays"]
        }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_roundtrip_is_bit_exact(self, dtype):
        exponent = {np.float32: 0x7F800000, np.float64: 0x7FF0000000000000}[dtype]
        sign = {np.float32: 0x80000000, np.float64: 0x8000000000000000}[dtype]
        specials = _bits(
            [exponent | 1, exponent | 0x12345, sign | exponent | 3, sign, exponent],
            dtype,
        )  # signalling/quiet NaN payloads, a negative NaN, -0.0, +inf
        matrix = np.arange(24, dtype=dtype).reshape(4, 6) / 7
        arrays = {
            "specials": specials,
            "zero_d": np.asarray(dtype(-0.0)),
            "empty": np.zeros((0, 3), dtype=dtype),
            "strided": matrix[:, ::2],
            "transposed": matrix.T,
            "big_endian": matrix.astype(np.dtype(dtype).newbyteorder(">")),
        }
        decoded = GatewayRequest.from_json(make_request(arrays=arrays).to_json())
        for name, original in arrays.items():
            copy = decoded.arrays[name]
            assert copy.dtype == original.dtype, name
            assert copy.shape == original.shape, name
            assert copy.tobytes() == original.tobytes(), name
            assert copy.flags.writeable, name

    def test_response_arrays_roundtrip(self):
        result = {"y": _bits([0x7FC00001, 0x80000000], np.float32)}
        response = GatewayResponse(
            request_id=1, tenant="acme", status="completed", worker_id=0,
            result=result,
        )
        decoded = GatewayResponse.from_json(response.to_json())
        assert decoded.result["y"].tobytes() == result["y"].tobytes()

    def test_bad_magic_version_and_trailing_bytes_rejected(self):
        frame = make_request().to_json()
        with pytest.raises(WireFormatError, match="magic"):
            GatewayRequest.from_json(b"XXXX" + frame[4:])
        with pytest.raises(WireFormatError, match="version"):
            GatewayRequest.from_json(frame[:4] + bytes([2]) + frame[5:])
        with pytest.raises(WireFormatError, match="trailing"):
            GatewayRequest.from_json(frame + b"\0")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            (1, "<f8", "nbytes"),
            (2, [5], "nbytes"),
            (3, 12, "nbytes"),
            (2, [-4], "shape"),
            (1, "|O", "cannot travel"),
            (1, "no-such-type", "cannot travel"),
            (0, None, "array name"),
        ],
    )
    def test_inconsistent_array_description_rejected(self, field, value, match):
        header, payload = split_frame(make_request().to_json())
        header["arrays"][0][field] = value
        with pytest.raises(WireFormatError, match=match):
            GatewayRequest.from_json(join_frame(header, payload))

    def test_object_arrays_cannot_be_encoded(self):
        with pytest.raises(WireFormatError, match="cannot travel"):
            encode_frame({}, {"x": np.array([object()])})
