"""Wire-format tests: every payload round-trips, every mangling rejects.

The round-trip half is property-style: instances of every registered
payload type are synthesized from their type hints with seeded
randomness (several per type), encoded to binary message frames,
decoded back, and compared for exact equality — so adding a payload
type to the registry automatically extends the test, and a codec that
silently loses a field or narrows a float fails here first.  Control
frames are JSON; a JSON body that is not a control record is rejected.
"""

import dataclasses
import json
import random
import struct
import typing

import pytest

from repro.core.protocol import BlockData, ViewerStateBatch, block_pattern
from repro.core.viewerstate import MirrorViewerState, ViewerState
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    FrameDecoder,
    WireError,
    WireStats,
    control_frame,
    decode_frames,
    encode_message,
    parse_frame,
    register_payload,
    registered_payload_types,
)
from repro.net.message import Message
from repro.obs.registry import MetricsRegistry, snapshot_total

REGISTRY = registered_payload_types()


# ----------------------------------------------------------------------
# Property-style instance synthesis from type hints
# ----------------------------------------------------------------------
def _synthesize(hint, rng: random.Random, depth: int = 0):
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        choices = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if rng.random() < 0.3:
            return None
        return _synthesize(rng.choice(choices), rng, depth)
    if origin is tuple:
        args = typing.get_args(hint)
        element = args[0] if args else int
        count = rng.randrange(0, 4) if depth < 2 else 0
        return tuple(_synthesize(element, rng, depth + 1) for _ in range(count))
    if hint is bool:
        return rng.random() < 0.5
    if hint is int:
        return rng.randrange(-(10**9), 10**12)
    if hint is float:
        # Mix of magnitudes, including values with no short repr.
        return rng.choice(
            [0.0, -1.5, rng.uniform(-1e6, 1e6), rng.random() * 1e-9]
        )
    if hint is str:
        return "".join(
            rng.choice("abc:#/0123 é☃") for _ in range(rng.randrange(0, 12))
        )
    if dataclasses.is_dataclass(hint):
        return _instance_of(hint, rng, depth + 1)
    raise AssertionError(f"no synthesizer for type hint {hint!r}")


def _instance_of(cls, rng: random.Random, depth: int = 0):
    hints = typing.get_type_hints(cls)
    kwargs = {
        field.name: _synthesize(hints[field.name], rng, depth)
        for field in dataclasses.fields(cls)
    }
    return cls(**kwargs)


def _message_of(cls, rng: random.Random) -> Message:
    return Message(
        src=f"cub:{rng.randrange(16)}",
        dst="controller",
        payload=_instance_of(cls, rng),
        size_bytes=rng.randrange(1, 10**6),
        kind=rng.choice(["control", "data"]),
    )


@pytest.mark.parametrize("tag", sorted(REGISTRY))
def test_payload_round_trips(tag):
    # The hub decodes every message it routes and re-encodes it for the
    # destination socket, so decode -> encode must reproduce the frame
    # byte for byte, not only an equal payload.
    cls = REGISTRY[tag]
    for seed in range(20):
        message = _message_of(cls, random.Random(f"{tag}-{seed}"))
        frame = encode_message(message)
        (_, decoded), = decode_frames(frame)
        assert decoded.payload == message.payload
        assert encode_message(decoded) == frame


@pytest.mark.parametrize("tag", sorted(REGISTRY))
def test_message_frame_round_trips(tag):
    # Every split point of every payload type's body, between two
    # control frames on the same stream.
    cls = REGISTRY[tag]
    for seed in range(5):
        message = _message_of(cls, random.Random(f"msg-{tag}-{seed}"))
        stream = (
            control_frame("_start", epoch=1.0)
            + encode_message(message)
            + control_frame("_stop")
        )
        decoder = FrameDecoder()
        frames = []
        for index in range(len(stream)):
            frames.extend(decoder.feed_parsed(stream[index:index + 1]))
        decoder.assert_drained()
        assert [kind for kind, _ in frames] == ["ctl", "msg", "ctl"]
        assert frames[0][1]["ctl"] == "_start"
        assert frames[1][1] == message
        assert frames[2][1]["ctl"] == "_stop"


def test_nested_batch_round_trips_exactly():
    batch = ViewerStateBatch(
        states=tuple(
            ViewerState(f"client:0#{i}", i, i * 3, 1, i, i % 8, 1.5 * i, i)
            for i in range(5)
        ),
        mirrors=(
            MirrorViewerState("client:1#9", 9, 4, 2, 7, 1, 2, 3, 8.25, 7),
        ),
    )
    (_, decoded), = decode_frames(
        encode_message(Message("cub:0", "cub:1", batch, 256))
    )
    assert decoded.payload == batch


def test_decoder_accepts_arbitrary_chunk_boundaries():
    rng = random.Random(7)
    expected = []
    stream = b""
    for index in range(10):
        if index % 3 == 0:
            stream += control_frame("_metrics", node="cub:0", t=float(index))
            expected.append(("ctl", float(index)))
        message = Message(
            "cub:0", "cub:1", _instance_of(REGISTRY["vstate"], rng), 100
        )
        stream += encode_message(message)
        expected.append(("msg", message))
    decoder = FrameDecoder()
    frames = []
    position = 0
    while position < len(stream):
        step = rng.randrange(1, 7)
        frames.extend(decoder.feed_parsed(stream[position:position + step]))
        position += step
    decoder.assert_drained()
    decoded = [
        (kind, parsed["t"] if kind == "ctl" else parsed)
        for kind, parsed in frames
    ]
    assert decoded == expected


def test_control_frames_round_trip():
    frame = control_frame("_start", epoch=123.5, duration=20.0)
    (kind, body), = decode_frames(frame)
    assert kind == "ctl"
    assert body["ctl"] == "_start"
    assert body["epoch"] == 123.5


# ----------------------------------------------------------------------
# Rejection: malformed, truncated, hostile
# ----------------------------------------------------------------------
def _json_frame(body) -> bytes:
    data = json.dumps(body).encode("utf-8")
    return struct.pack(">I", len(data)) + data


def test_unregistered_payload_type_rejected_at_encode():
    class NotRegistered:
        pass

    with pytest.raises(WireError, match="not wire-registered"):
        encode_message(Message("cub:0", "cub:1", NotRegistered(), 64))


def test_unknown_tag_rejected_at_decode():
    # An unknown payload id nested inside a batch, not at the top.
    state = ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.0, 7)
    batch = ViewerStateBatch(states=(state,))
    frame = encode_message(Message("cub:0", "cub:1", batch, 64))
    body = bytearray(frame[4:])
    # header 3 + envelope 13 + two 4-byte-prefixed 5-byte addresses,
    # then the batch's _B_OBJ code and id, then its states _B_SEQ code
    # and count, then the nested state's _B_OBJ code and id.
    nested_at = 3 + 13 + 9 + 9 + 2 + 5
    assert body[nested_at] == 0x07
    body[nested_at + 1] = 0xFE  # no registry id 254
    mangled = struct.pack(">I", len(body)) + bytes(body)
    with pytest.raises(WireError, match="unknown binary payload id 254"):
        FrameDecoder().feed_parsed(mangled)


def test_unknown_field_rejected_at_decode():
    # A value smuggled after the payload's last field.
    state = ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.0, 7)
    frame = encode_message(Message("cub:0", "cub:1", state, 64))
    body = frame[4:] + b"\x01"  # a trailing _B_TRUE
    mangled = struct.pack(">I", len(body)) + body
    with pytest.raises(WireError, match="trailing byte"):
        FrameDecoder().feed_parsed(mangled)


def test_missing_required_field_rejected_at_decode():
    # The payload's last field (an i64: type code + 8 bytes) is absent.
    state = ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.0, 7)
    frame = encode_message(Message("cub:0", "cub:1", state, 64))
    body = frame[4:-9]
    mangled = struct.pack(">I", len(body)) + body
    with pytest.raises(WireError, match="truncated binary value"):
        FrameDecoder().feed_parsed(mangled)


def test_wrong_wire_version_rejected():
    frame = _json_frame({"v": WIRE_VERSION + 1, "ctl": "_start"})
    with pytest.raises(WireError, match="unsupported wire version"):
        FrameDecoder().feed_parsed(frame)


def test_oversized_length_prefix_rejected_before_buffering():
    hostile = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"
    with pytest.raises(WireError, match="exceeds maximum"):
        FrameDecoder().feed_parsed(hostile)


def test_truncated_stream_detected():
    state = ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.0, 7)
    stream = control_frame("_stop") + encode_message(
        Message("cub:0", "cub:1", state, 64)
    )
    decoder = FrameDecoder()
    frames = decoder.feed_parsed(stream[:-3])
    assert [kind for kind, _ in frames] == ["ctl"]
    message_bytes = len(stream) - len(control_frame("_stop"))
    assert decoder.pending_bytes() == message_bytes - 3
    with pytest.raises(WireError, match="truncated"):
        decoder.assert_drained()


def test_garbage_body_rejected():
    garbage = struct.pack(">I", 4) + b"\xff\xfe\x00\x01"
    with pytest.raises(WireError, match="undecodable frame body"):
        FrameDecoder().feed_parsed(garbage)


def test_frame_missing_envelope_field_rejected():
    # A binary body that ends inside the fixed-width envelope.
    state = ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.0, 7)
    frame = encode_message(Message("cub:0", "cub:1", state, 64))
    body = frame[4:12]  # header (3 bytes) + 5 of the 13 envelope bytes
    mangled = struct.pack(">I", len(body)) + body
    with pytest.raises(WireError, match="truncated binary envelope"):
        FrameDecoder().feed_parsed(mangled)


def test_json_body_without_ctl_rejected():
    # Protocol messages only travel as binary frames: a JSON message
    # envelope is not a control record and must not be delivered.
    frame = _json_frame({
        "v": WIRE_VERSION, "src": "cub:0", "dst": "cub:1",
        "kind": "control", "size": 64, "id": 1, "p": None,
    })
    with pytest.raises(WireError, match="'ctl'"):
        FrameDecoder().feed_parsed(frame)
    with pytest.raises(WireError, match="'ctl'"):
        parse_frame({"v": WIRE_VERSION})


def test_duplicate_tag_registration_rejected():
    with pytest.raises(WireError, match="already registered"):
        register_payload("vstate", MirrorViewerState)


def test_non_dataclass_registration_rejected():
    with pytest.raises(WireError, match="not a dataclass"):
        register_payload("bogus", int)


# ----------------------------------------------------------------------
# Binary codec (wire v2)
# ----------------------------------------------------------------------
def _binary_frame_of(payload, **envelope):
    message = Message(
        src=envelope.pop("src", "cub:0"),
        dst=envelope.pop("dst", "cub:1"),
        payload=payload,
        size_bytes=envelope.pop("size_bytes", 64),
        **envelope,
    )
    return message, encode_message(message)


@pytest.mark.parametrize("tag", sorted(REGISTRY))
def test_binary_payload_round_trips(tag):
    cls = REGISTRY[tag]
    for seed in range(20):
        rng = random.Random(f"bin-{tag}-{seed}")
        message, frame = _binary_frame_of(
            _instance_of(cls, rng),
            src=f"cub:{rng.randrange(16)}",
            dst="controller",
            size_bytes=rng.randrange(1, 10**6),
            kind=rng.choice(["control", "data"]),
            msg_id=rng.randrange(0, 2**63),
        )
        (kind, decoded), = decode_frames(frame)
        assert kind == "msg"
        assert decoded == message


def test_binary_round_trips_u64_fingerprints():
    # Content fingerprints are full-width 64-bit hashes; values at or
    # above 2**63 must survive (they overflow the signed i64 code).
    block = BlockData(
        viewer_id="client:0#1", instance=1, file_id=2, block_index=3,
        play_seqno=4, pattern=block_pattern(2, 3),
    )
    assert block.pattern >= (1 << 63)  # the fixture must exercise u64
    _, frame = _binary_frame_of(block, kind="data")
    (_, decoded), = decode_frames(frame)
    assert decoded.payload.pattern == block.pattern


def test_binary_rejects_int_beyond_u64():
    oversized = ViewerState("client:0#1", 1 << 64, 2, 3, 4, 5, 6.0, 7)
    with pytest.raises(WireError, match="out of binary range"):
        encode_message(Message("cub:0", "cub:1", oversized, 64))


def test_mixed_codec_stream_decodes():
    # Frames are self-describing (first body byte), so one decoder reads
    # JSON control frames and binary message frames off one stream.
    rng = random.Random(11)
    messages = [
        Message("cub:0", "cub:1", _instance_of(REGISTRY["vstate"], rng), 100)
        for _ in range(8)
    ]
    stream = b"".join(
        encode_message(m) + control_frame("_metrics", seq=i)
        for i, m in enumerate(messages)
    )
    decoder = FrameDecoder()
    decoded = decoder.feed_parsed(stream)
    decoder.assert_drained()
    assert [m for kind, m in decoded if kind == "msg"] == messages
    assert [b["seq"] for kind, b in decoded if kind == "ctl"] == list(range(8))
    assert [kind for kind, _ in decoded] == ["msg", "ctl"] * 8


def test_binary_bad_magic_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    mangled = frame[:4] + b"\xb3" + frame[5:]
    with pytest.raises(WireError, match="undecodable frame body"):
        FrameDecoder().feed_parsed(mangled)


def test_binary_wrong_version_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    mangled = frame[:5] + bytes([WIRE_VERSION_BINARY + 1]) + frame[6:]
    with pytest.raises(WireError, match="unsupported wire version"):
        FrameDecoder().feed_parsed(mangled)


def test_binary_unknown_frame_type_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    mangled = frame[:6] + b"\x7f" + frame[7:]
    with pytest.raises(WireError, match="unknown binary frame type"):
        FrameDecoder().feed_parsed(mangled)


def test_binary_truncated_payload_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    body = frame[4:-3]  # drop payload bytes but keep the prefix honest
    mangled = struct.pack(">I", len(body)) + body
    with pytest.raises(WireError, match="truncated binary"):
        FrameDecoder().feed_parsed(mangled)


def test_binary_unknown_payload_id_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    body = bytearray(frame[4:])
    obj_at = body.index(0x07)  # first _B_OBJ type code is the payload's
    body[obj_at + 1] = 0xFE  # no registry id 254
    mangled = struct.pack(">I", len(body)) + bytes(body)
    with pytest.raises(WireError, match="unknown binary payload id"):
        FrameDecoder().feed_parsed(mangled)


def test_wire_stats_counts_frames_and_bytes_per_codec():
    # A control frame counts under ``json``, a message under ``binary``.
    registry = MetricsRegistry()
    stats = WireStats(registry, node="test")
    message, _ = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    json_frame = control_frame("_metrics", node="test")
    stats.on_encoded(CODEC_JSON, len(json_frame))
    binary_frame = encode_message(message, stats)
    decoder = FrameDecoder(stats=stats)
    decoder.feed_parsed(json_frame + binary_frame)
    snapshot = registry.snapshot()
    for codec, direction, expected in (
        (CODEC_JSON, "tx", len(json_frame)),
        (CODEC_BINARY, "tx", len(binary_frame)),
        (CODEC_JSON, "rx", len(json_frame)),
        (CODEC_BINARY, "rx", len(binary_frame)),
    ):
        assert snapshot_total(
            snapshot, "live.wire_frames",
            codec=codec, direction=direction, node="test",
        ) == 1
        assert snapshot_total(
            snapshot, "live.wire_bytes",
            codec=codec, direction=direction, node="test",
        ) == expected
