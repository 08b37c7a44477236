"""Wire format for the live backend: framing and payload serialization.

The DES hands payload objects between components by reference; real
sockets need bytes.  This module defines:

* a **payload registry** mapping every protocol payload dataclass
  (:class:`~repro.core.viewerstate.ViewerState`, deschedule requests,
  heartbeats, reservations/start-stop traffic, block data, replica
  updates, ...) to a stable tag (its documented name) and a stable
  numeric id (its wire identity) — registering a new payload type is
  one :func:`register_payload` call;
* **message frames (v2 binary)**: a 4-byte big-endian length prefix
  followed by a struct-packed body (magic ``0xB2``, version, frame
  type, fixed-width :class:`~repro.net.message.Message` envelope,
  type-coded payload values) decoded from :class:`memoryview` slices
  without intermediate copies;
* **control frames (v1 JSON)**: the same length prefix followed by a
  JSON object carrying the wire version and a ``ctl`` verb (``hello``,
  ``_start``, ``_metrics``, ``_stop``, ``_bye``, ``_error``).  They are
  rare, carry metric snapshots, and must be readable before anything
  else happens.  The first body byte tells the two apart — JSON bodies
  start with ``{`` (0x7B), binary bodies with ``0xB2``;
* an incremental :class:`FrameDecoder` that accepts arbitrary chunk
  boundaries from a TCP stream, with optional :class:`WireStats`
  frame/byte accounting.

Frames whose version, length, magic, or payload id is wrong, and JSON
bodies that are not control records, are rejected with
:class:`WireError` — a malformed peer cannot wedge the decoder.  The
byte-level layout of both frame kinds is specified in ``docs/WIRE.md``.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from repro.core.protocol import (
    BlockData,
    CancelStart,
    ClientStart,
    ClientStop,
    DescheduleForward,
    Heartbeat,
    HelperCancel,
    HelperFetch,
    HelperFetchReply,
    HelperHit,
    HelperInvalidate,
    HelperMiss,
    HelperProbe,
    PlayEnded,
    ReplicaUpdate,
    RestripeAck,
    RestripeBlock,
    RestripeCommit,
    RestripeCopy,
    StartAck,
    StartCommitted,
    StartRequest,
    ViewerStateBatch,
)
from repro.core.viewerstate import (
    DescheduleRequest,
    MirrorViewerState,
    ViewerState,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message

#: Frame format version of JSON control frames.  A control frame
#: carrying any other version is rejected.
WIRE_VERSION = 1

#: Frame format version of binary frames (the ``version`` byte that
#: follows the magic byte in every v2 body).
WIRE_VERSION_BINARY = 2

#: First byte of every binary frame body.  JSON bodies start with
#: ``{`` (0x7B), so the two frame kinds are self-describing on one stream.
BINARY_MAGIC = 0xB2

#: ``codec`` label values of the ``live.wire_*`` counters: JSON
#: control frames and binary protocol-message frames.
CODEC_JSON = "json"
CODEC_BINARY = "binary"

#: Upper bound on one frame's body size.  Control records are a few
#: hundred bytes; even a maximal viewer-state batch is far below this.
#: Anything larger is a corrupt length prefix, not a real frame.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

# Binary frame types (the byte after the version byte).
_FT_MESSAGE = 0x01

# Binary value type codes (see docs/WIRE.md).
_B_NONE = 0x00
_B_TRUE = 0x01
_B_FALSE = 0x02
_B_INT = 0x03
_B_FLOAT = 0x04
_B_STR = 0x05
_B_SEQ = 0x06
_B_OBJ = 0x07
#: Unsigned 64-bit escape hatch: content fingerprints are full-width
#: u64 hashes that overflow the signed ``_B_INT`` range.
_B_U64 = 0x08

_BIN_HEAD = struct.Struct(">BBB")     # magic, version, frame type
_BIN_MSG = struct.Struct(">QIB")      # msg_id, size_bytes, kind code
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")

_KIND_TO_CODE = {KIND_CONTROL: 0, KIND_DATA: 1}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}


class WireError(ValueError):
    """Raised for malformed, truncated, oversized, or unknown frames."""


# ----------------------------------------------------------------------
# Payload registry
# ----------------------------------------------------------------------
_TAG_TO_TYPE: Dict[str, Type[Any]] = {}
#: Stable numeric ids for the binary codec, assigned in registration
#: order starting at 1 (0 is reserved/invalid).
_TAG_TO_ID: Dict[str, int] = {}
_ID_TO_TYPE: Dict[int, Type[Any]] = {}
_TYPE_TO_ID: Dict[Type[Any], int] = {}
#: Field names per registered class, in declaration order — the binary
#: codec writes values positionally and never puts names on the wire.
_TYPE_FIELDS: Dict[Type[Any], Tuple[str, ...]] = {}


def register_payload(tag: str, cls: Type[Any]) -> None:
    """Register a payload dataclass under a stable wire tag.

    The registration *order* is part of the wire contract: the binary
    codec identifies payload types by their 1-based registration index
    (see ``docs/WIRE.md``), so new types must be appended, never
    inserted.

    :param tag: Short, stable name of the type (the documented name of
        its numeric id in ``docs/WIRE.md``).
    :param cls: A dataclass whose fields are primitives, tuples
        thereof, or other registered payload types.
    """
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"payload type {cls!r} is not a dataclass")
    if tag in _TAG_TO_TYPE and _TAG_TO_TYPE[tag] is not cls:
        raise WireError(f"wire tag {tag!r} already registered")
    if tag in _TAG_TO_TYPE:
        return
    numeric_id = len(_TAG_TO_TYPE) + 1
    if numeric_id > 0xFF:
        raise WireError("payload registry full (255 types)")
    _TAG_TO_TYPE[tag] = cls
    _TAG_TO_ID[tag] = numeric_id
    _ID_TO_TYPE[numeric_id] = cls
    _TYPE_TO_ID[cls] = numeric_id
    _TYPE_FIELDS[cls] = tuple(
        field.name for field in dataclasses.fields(cls)
    )


def registered_payload_types() -> Dict[str, Type[Any]]:
    """A copy of the tag -> payload-type registry (tests, docs)."""
    return dict(_TAG_TO_TYPE)


def payload_registry() -> List[Tuple[int, str, Type[Any]]]:
    """The full registry as ``(numeric id, tag, class)`` rows, by id."""
    return sorted(
        (_TAG_TO_ID[tag], tag, cls) for tag, cls in _TAG_TO_TYPE.items()
    )


for _tag, _cls in (
    ("vstate", ViewerState),
    ("mirror_vstate", MirrorViewerState),
    ("deschedule_req", DescheduleRequest),
    ("vstate_batch", ViewerStateBatch),
    ("start_req", StartRequest),
    ("cancel_start", CancelStart),
    ("start_committed", StartCommitted),
    ("play_ended", PlayEnded),
    ("deschedule_fwd", DescheduleForward),
    ("heartbeat", Heartbeat),
    ("block_data", BlockData),
    ("client_start", ClientStart),
    ("client_stop", ClientStop),
    ("start_ack", StartAck),
    ("replica_update", ReplicaUpdate),
    # Helper/cache edge tier (appended — ids are positional).
    ("helper_probe", HelperProbe),
    ("helper_hit", HelperHit),
    ("helper_miss", HelperMiss),
    ("helper_fetch", HelperFetch),
    ("helper_fetch_reply", HelperFetchReply),
    ("helper_invalidate", HelperInvalidate),
    ("helper_cancel", HelperCancel),
    # Online restriping (appended — ids are positional).
    ("restripe_copy", RestripeCopy),
    ("restripe_block", RestripeBlock),
    ("restripe_ack", RestripeAck),
    ("restripe_commit", RestripeCommit),
):
    register_payload(_tag, _cls)


# ----------------------------------------------------------------------
# Frame accounting
# ----------------------------------------------------------------------
class WireStats:
    """Frames/bytes per codec and direction, backed by obs counters.

    One instance per endpoint (a node process, or the driver's hub).
    ``codec`` is :data:`CODEC_JSON` for control frames and
    :data:`CODEC_BINARY` for protocol messages.  ``direction`` is from
    the owning endpoint's point of view: ``tx`` counts frames this
    endpoint encoded onto a socket, ``rx`` counts frames its decoder
    parsed.  Frame length includes the 4-byte length prefix.
    """

    __slots__ = ("_tx", "_rx")

    def __init__(self, registry: Any, **labels: Any) -> None:
        def pair(codec: str, direction: str):
            frames = registry.counter(
                "live.wire_frames",
                help="Wire frames encoded (tx) / decoded (rx) per codec",
                unit="frames", codec=codec, direction=direction, **labels,
            )
            bytes_ = registry.counter(
                "live.wire_bytes",
                help="Wire bytes encoded (tx) / decoded (rx) per codec, "
                     "including the 4-byte length prefix",
                unit="bytes", codec=codec, direction=direction, **labels,
            )
            return frames, bytes_

        codecs = (CODEC_BINARY, CODEC_JSON)
        self._tx = {codec: pair(codec, "tx") for codec in codecs}
        self._rx = {codec: pair(codec, "rx") for codec in codecs}

    def on_encoded(self, codec: str, nbytes: int) -> None:
        frames, bytes_ = self._tx[codec]
        frames.increment()
        bytes_.increment(nbytes)

    def on_decoded(self, codec: str, nbytes: int) -> None:
        frames, bytes_ = self._rx[codec]
        frames.increment()
        bytes_.increment(nbytes)


# ----------------------------------------------------------------------
# Control frames (v1 JSON)
# ----------------------------------------------------------------------
def control_frame(kind: str, **fields: Any) -> bytes:
    """Serialize a hub/node control record (hello, start, metrics...).

    Control frames share the stream with message frames but never reach
    protocol code; they drive join/handshake, clock distribution,
    metrics streaming, error reporting, and shutdown.
    """
    body: Dict[str, Any] = {"v": WIRE_VERSION, "ctl": kind}
    body.update(fields)
    data = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(data)} bytes exceeds maximum")
    return _LENGTH.pack(len(data)) + data


def parse_frame(body: Any) -> Tuple[str, Dict[str, Any]]:
    """Check one decoded JSON frame body is a control record.

    :returns: ``("ctl", body)``.
    :raises WireError: on a version mismatch or a body without ``ctl``
        (protocol messages only ever travel as binary frames).
    """
    if not isinstance(body, dict):
        raise WireError("frame body is not an object")
    version = body.get("v")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} (speaking {WIRE_VERSION})"
        )
    if "ctl" not in body:
        raise WireError("JSON frame body has no 'ctl' verb")
    return ("ctl", body)


# ----------------------------------------------------------------------
# Message frames (v2 binary)
# ----------------------------------------------------------------------
def _encode_binary_value(obj: Any, out: bytearray) -> None:
    if obj is None:
        out.append(_B_NONE)
    elif obj is True:
        out.append(_B_TRUE)
    elif obj is False:
        out.append(_B_FALSE)
    elif isinstance(obj, int):
        if -(1 << 63) <= obj < (1 << 63):
            out.append(_B_INT)
            out += _I64.pack(obj)
        elif obj < (1 << 64):
            # Full-width unsigned values (content fingerprint hashes).
            out.append(_B_U64)
            out += _U64.pack(obj)
        else:
            raise WireError(f"int {obj} out of binary range")
    elif isinstance(obj, float):
        out.append(_B_FLOAT)
        out += _F64.pack(obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        if len(data) > 0xFFFFFFFF:
            raise WireError("string too long for binary frame")
        out.append(_B_STR)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(obj, (tuple, list)):
        out.append(_B_SEQ)
        out += _U32.pack(len(obj))
        for item in obj:
            _encode_binary_value(item, out)
    else:
        numeric_id = _TYPE_TO_ID.get(type(obj))
        if numeric_id is None:
            raise WireError(
                f"payload type {type(obj).__name__} is not wire-registered"
            )
        out.append(_B_OBJ)
        out.append(numeric_id)
        for name in _TYPE_FIELDS[type(obj)]:
            _encode_binary_value(getattr(obj, name), out)


def encode_message(
    message: Message, stats: Optional[WireStats] = None
) -> bytes:
    """Serialize one message as a v2 (binary) frame, counting into stats."""
    kind_code = _KIND_TO_CODE.get(message.kind)
    if kind_code is None:
        raise WireError(f"unknown message kind {message.kind!r}")
    src = message.src.encode("utf-8")
    dst = message.dst.encode("utf-8")
    body = bytearray()
    body += _BIN_HEAD.pack(BINARY_MAGIC, WIRE_VERSION_BINARY, _FT_MESSAGE)
    try:
        body += _BIN_MSG.pack(message.msg_id, message.size_bytes, kind_code)
    except struct.error as error:
        raise WireError(f"envelope field out of binary range: {error}") from error
    body += _U32.pack(len(src))
    body += src
    body += _U32.pack(len(dst))
    body += dst
    _encode_binary_value(message.payload, body)
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(body)} bytes exceeds maximum")
    frame = _LENGTH.pack(len(body)) + bytes(body)
    if stats is not None:
        stats.on_encoded(CODEC_BINARY, len(frame))
    return frame


def _read_binary_str(view: memoryview, offset: int) -> Tuple[str, int]:
    try:
        (length,) = _U32.unpack_from(view, offset)
    except struct.error as error:
        raise WireError(f"truncated binary string: {error}") from error
    offset += _U32.size
    end = offset + length
    if end > len(view):
        raise WireError("truncated binary string body")
    try:
        return str(view[offset:end], "utf-8"), end
    except UnicodeDecodeError as error:
        raise WireError(f"bad utf-8 in binary frame: {error}") from error


def _decode_binary_value(view: memoryview, offset: int) -> Tuple[Any, int]:
    if offset >= len(view):
        raise WireError("truncated binary value")
    code = view[offset]
    offset += 1
    if code == _B_NONE:
        return None, offset
    if code == _B_TRUE:
        return True, offset
    if code == _B_FALSE:
        return False, offset
    try:
        if code == _B_INT:
            (value,) = _I64.unpack_from(view, offset)
            return value, offset + _I64.size
        if code == _B_U64:
            (value,) = _U64.unpack_from(view, offset)
            return value, offset + _U64.size
        if code == _B_FLOAT:
            (value,) = _F64.unpack_from(view, offset)
            return value, offset + _F64.size
        if code == _B_STR:
            return _read_binary_str(view, offset)
        if code == _B_SEQ:
            (count,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            if count > len(view):  # cheap sanity bound: >= 1 byte/item
                raise WireError(f"binary sequence count {count} too large")
            items = []
            for _ in range(count):
                item, offset = _decode_binary_value(view, offset)
                items.append(item)
            return tuple(items), offset
        if code == _B_OBJ:
            if offset >= len(view):
                raise WireError("truncated binary object header")
            numeric_id = view[offset]
            offset += 1
            cls = _ID_TO_TYPE.get(numeric_id)
            if cls is None:
                raise WireError(f"unknown binary payload id {numeric_id}")
            values = []
            for _ in _TYPE_FIELDS[cls]:
                value, offset = _decode_binary_value(view, offset)
                values.append(value)
            try:
                return cls(*values), offset
            except (TypeError, ValueError) as error:
                raise WireError(
                    f"bad {cls.__name__} payload: {error}"
                ) from error
    except struct.error as error:
        raise WireError(f"truncated binary value: {error}") from error
    raise WireError(f"unknown binary value type code {code:#04x}")


def _parse_binary_body(view: memoryview) -> Tuple[str, Any]:
    try:
        magic, version, frame_type = _BIN_HEAD.unpack_from(view, 0)
    except struct.error as error:
        raise WireError(f"binary frame too short: {error}") from error
    if magic != BINARY_MAGIC:
        raise WireError(f"bad binary magic {magic:#04x}")
    if version != WIRE_VERSION_BINARY:
        raise WireError(
            f"unsupported wire version {version!r} "
            f"(speaking {WIRE_VERSION_BINARY})"
        )
    if frame_type != _FT_MESSAGE:
        raise WireError(f"unknown binary frame type {frame_type:#04x}")
    offset = _BIN_HEAD.size
    try:
        msg_id, size_bytes, kind_code = _BIN_MSG.unpack_from(view, offset)
    except struct.error as error:
        raise WireError(f"truncated binary envelope: {error}") from error
    offset += _BIN_MSG.size
    kind = _CODE_TO_KIND.get(kind_code)
    if kind is None:
        raise WireError(f"unknown message kind code {kind_code}")
    src, offset = _read_binary_str(view, offset)
    dst, offset = _read_binary_str(view, offset)
    payload, offset = _decode_binary_value(view, offset)
    if offset != len(view):
        raise WireError(
            f"{len(view) - offset} trailing byte(s) after binary payload"
        )
    try:
        message = Message(
            src=src, dst=dst, payload=payload, size_bytes=size_bytes,
            kind=kind, msg_id=msg_id,
        )
    except ValueError as error:
        raise WireError(f"bad message envelope: {error}") from error
    return ("msg", message)


def _parse_body_view(view: memoryview) -> Tuple[str, Tuple[str, Any]]:
    """Decode one frame body; returns ``(codec, parsed frame)``."""
    if len(view) and view[0] == BINARY_MAGIC:
        return (CODEC_BINARY, _parse_binary_body(view))
    try:
        body = json.loads(bytes(view))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable frame body: {error}") from error
    return (CODEC_JSON, parse_frame(body))


class FrameDecoder:
    """Incremental frame reader tolerating arbitrary chunk boundaries.

    Feed raw TCP bytes in; parsed ``("ctl", body)`` /
    ``("msg", Message)`` tuples come out.  The decoder validates the
    length prefix before buffering a body, so a corrupt or hostile peer
    cannot make it allocate unboundedly, and decodes binary bodies
    straight from a :class:`memoryview` over the receive buffer (no
    per-frame body copy).
    """

    def __init__(self, stats: Optional[WireStats] = None) -> None:
        self._buffer = bytearray()
        self._stats = stats

    def feed_parsed(self, data: bytes) -> List[Tuple[str, Any]]:
        """Add bytes; return every parsed frame completed by them.

        The first body byte discriminates control from message frames.
        Binary bodies are decoded from a :class:`memoryview` over the
        internal buffer — values are extracted with
        ``unpack_from``/slice decoding, never via an intermediate
        ``bytes`` copy of the body.

        :raises WireError: on any malformed frame; frames parsed
            before the error are lost to the caller, which treats a
            wire error as fatal for the connection anyway.
        """
        self._buffer.extend(data)
        frames: List[Tuple[str, Any]] = []
        consumed = 0
        total = len(self._buffer)
        view = memoryview(self._buffer)
        try:
            while True:
                if total - consumed < _LENGTH.size:
                    break
                (length,) = _LENGTH.unpack_from(view, consumed)
                if length > MAX_FRAME_BYTES:
                    raise WireError(
                        f"frame length {length} exceeds maximum "
                        f"{MAX_FRAME_BYTES} (corrupt stream?)"
                    )
                end = consumed + _LENGTH.size + length
                if total < end:
                    break
                body = view[consumed + _LENGTH.size:end]
                try:
                    codec, parsed = _parse_body_view(body)
                finally:
                    body.release()
                if self._stats is not None:
                    self._stats.on_decoded(codec, _LENGTH.size + length)
                frames.append(parsed)
                consumed = end
        finally:
            view.release()
            if consumed:
                del self._buffer[:consumed]
        return frames

    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buffer)

    def assert_drained(self) -> None:
        """Raise if the stream ended mid-frame (truncation check)."""
        if self._buffer:
            raise WireError(
                f"stream truncated with {len(self._buffer)} byte(s) of "
                "partial frame"
            )


def decode_frames(data: bytes) -> Iterator[Tuple[str, Any]]:
    """Decode a complete byte string into parsed frames (tests, tools).

    :raises WireError: if the data ends mid-frame or any frame is bad.
    """
    decoder = FrameDecoder()
    frames = decoder.feed_parsed(data)
    decoder.assert_drained()
    yield from frames
