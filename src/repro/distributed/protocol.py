"""Wire protocol for the ``uuidp serve`` RPC layer.

A connection carries a stream of length-prefixed binary frames, the
same layout in both directions::

    +----------------+------------+--------+------------------+
    | length: u32 BE | msg_id: u64 BE | code: u8 | body ...    |
    +----------------+------------+--------+------------------+

``length`` counts everything after itself (``msg_id`` + ``code`` +
``body``), so a frame is at least :data:`HEADER_SIZE` bytes past the
prefix and at most :data:`DEFAULT_MAX_FRAME` (configurable per
server — a larger prefix is a protocol violation and closes the
connection *before* any allocation). ``msg_id`` is chosen by the
client and echoed verbatim in the response, so a reply finds its
request by id: a client drops late replies to ops that already timed
out, and a peer that pipelines frames can match each response.

``code`` is an **op code** in requests and a **status code** in
responses. The data op codes mirror the
:func:`repro.workloads.driver.execute_op` vocabulary exactly — get /
put / delete / rmw / scan travel as one logical op each (``rmw`` is a
single frame; the server performs the get + put pair) and the response
body is the *outcome digest* ``execute_op`` returned. That is the whole
trick behind the determinism contract: the driver fingerprints
``op + key + outcome`` bytes, so a network run and an in-process run
hash identical streams.

Bodies:

* data ops — ``klen:u32 | key | vlen:u32 | value`` (scan packs its row
  count as the decimal-ASCII ``value``, as ``execute_op`` expects);
* ``ATTACH`` — ``shard:u32 | shard_seed:u64`` (the server builds that
  shard's private target from its configured factory);
* ``KILL`` / ``RECOVER`` — ``node:u32`` (chaos injection through the
  RPC boundary);
* ``REPORT`` — empty request, JSON response (flush + cluster report);
* error responses — a UTF-8 message.

Every decoder here raises :class:`~repro.errors.RPCProtocolError` on
malformed input rather than ``struct``-style exceptions, so the server
loop can treat "peer speaks garbage" as one condition.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from repro.errors import RPCProtocolError

#: Frame-size cap (body + header, excluding the length prefix). Large
#: enough for any workload value plus framing, small enough that a
#: hostile length prefix cannot balloon server memory.
DEFAULT_MAX_FRAME = 1 << 20

#: Bytes of every frame past the length prefix before the body starts.
HEADER_SIZE = 8 + 1
_LENGTH_SIZE = 4
_U32_MAX = (1 << 32) - 1
_U64_MAX = (1 << 64) - 1

# -- request op codes -------------------------------------------------------

OP_ATTACH = 0x01
OP_GET = 0x10
OP_PUT = 0x11
OP_DELETE = 0x12
OP_RMW = 0x13
OP_SCAN = 0x14
OP_KILL = 0x20
OP_RECOVER = 0x21
OP_REPORT = 0x22

#: The ``execute_op`` vocabulary <-> wire codes.
OP_TO_CODE = {
    "get": OP_GET,
    "put": OP_PUT,
    "delete": OP_DELETE,
    "rmw": OP_RMW,
    "scan": OP_SCAN,
}
CODE_TO_OP = {code: op for op, code in OP_TO_CODE.items()}

# -- response status codes --------------------------------------------------

STATUS_OK = 0x00
#: Quorum loss / timeout-class failure: the op was not acknowledged.
STATUS_UNAVAILABLE = 0x01
#: The *client* broke the protocol; the server closes the connection
#: after this response.
STATUS_PROTOCOL = 0x02
#: Server-side execution error (bad node index, store without kill()...).
STATUS_ERROR = 0x03


# -- primitive packers ------------------------------------------------------

def _check_u32(value: int, label: str) -> int:
    if not 0 <= value <= _U32_MAX:
        raise RPCProtocolError(f"{label} {value} outside u32 range")
    return value


def encode_frame(msg_id: int, code: int, body: bytes = b"",
                 max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Pack one frame, length prefix included."""
    if not 0 <= msg_id <= _U64_MAX:
        raise RPCProtocolError(f"msg_id {msg_id} outside u64 range")
    if not 0 <= code <= 0xFF:
        raise RPCProtocolError(f"code {code} outside u8 range")
    length = HEADER_SIZE + len(body)
    if length > max_frame:
        raise RPCProtocolError(
            f"frame of {length} bytes exceeds max frame size {max_frame}"
        )
    return (
        length.to_bytes(_LENGTH_SIZE, "big")
        + msg_id.to_bytes(8, "big")
        + bytes((code,))
        + body
    )


def decode_frame(frame: bytes) -> Tuple[int, int, bytes]:
    """Unpack a frame (without its length prefix) into
    ``(msg_id, code, body)``."""
    if len(frame) < HEADER_SIZE:
        raise RPCProtocolError(
            f"frame of {len(frame)} bytes is shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    return int.from_bytes(frame[:8], "big"), frame[8], frame[9:]


def encode_kv(key: bytes, value: bytes) -> bytes:
    """Pack a data-op body: ``klen | key | vlen | value``."""
    return (
        _check_u32(len(key), "key length").to_bytes(4, "big")
        + key
        + _check_u32(len(value), "value length").to_bytes(4, "big")
        + value
    )


def decode_kv(body: bytes) -> Tuple[bytes, bytes]:
    """Unpack a data-op body; raises on truncation or trailing junk."""
    if len(body) < 4:
        raise RPCProtocolError("data-op body truncated before key length")
    klen = int.from_bytes(body[:4], "big")
    if len(body) < 4 + klen + 4:
        raise RPCProtocolError("data-op body truncated inside key/value")
    key = body[4:4 + klen]
    vlen = int.from_bytes(body[4 + klen:8 + klen], "big")
    if len(body) != 8 + klen + vlen:
        raise RPCProtocolError(
            f"data-op body of {len(body)} bytes does not match "
            f"klen={klen} + vlen={vlen}"
        )
    return key, body[8 + klen:]


def encode_attach(shard: int, shard_seed: int) -> bytes:
    """Pack an ATTACH body: the shard identity the server's target
    factory is called with (so server-side targets are built exactly as
    :class:`~repro.workloads.driver.WorkloadDriver` builds in-process
    ones)."""
    _check_u32(shard, "shard")
    if not 0 <= shard_seed <= _U64_MAX:
        raise RPCProtocolError(f"shard_seed {shard_seed} outside u64 range")
    return shard.to_bytes(4, "big") + shard_seed.to_bytes(8, "big")


def decode_attach(body: bytes) -> Tuple[int, int]:
    """Decode an ATTACH body back into ``(shard, shard_seed)``."""
    if len(body) != 12:
        raise RPCProtocolError(
            f"ATTACH body must be 12 bytes (shard:u32 | seed:u64), "
            f"got {len(body)}"
        )
    return int.from_bytes(body[:4], "big"), int.from_bytes(body[4:], "big")


def encode_node(node: int) -> bytes:
    """Encode a node index for KILL/RECOVER frames (u32, big-endian)."""
    return _check_u32(node, "node index").to_bytes(4, "big")


def decode_node(body: bytes) -> int:
    """Decode a node index from a KILL/RECOVER frame body."""
    if len(body) != 4:
        raise RPCProtocolError(
            f"KILL/RECOVER body must be 4 bytes (node:u32), got {len(body)}"
        )
    return int.from_bytes(body, "big")


# -- stream framing ---------------------------------------------------------

def frame_length(prefix: bytes, max_frame: int) -> int:
    """Validate a length prefix and return the frame length it announces.

    The one length check every reader shares: a prefix larger than
    ``max_frame`` or shorter than the header raises
    :class:`~repro.errors.RPCProtocolError` before the caller reads or
    allocates the body.
    """
    length = int.from_bytes(prefix, "big")
    if length > max_frame:
        raise RPCProtocolError(
            f"length prefix {length} exceeds max frame size {max_frame}"
        )
    if length < HEADER_SIZE:
        raise RPCProtocolError(
            f"length prefix {length} is shorter than the frame header"
        )
    return length


def pop_frame(
    buffer: bytearray, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[bytes]:
    """Take the first complete frame off the front of a receive buffer.

    Returns the frame bytes (length prefix stripped) and removes them
    from ``buffer``, or ``None`` while the buffer holds only part of a
    frame. A bad length prefix raises as soon as its four bytes are
    buffered, before any of the body is read.
    """
    if len(buffer) < _LENGTH_SIZE:
        return None
    prefix = bytes(buffer[:_LENGTH_SIZE])
    end = _LENGTH_SIZE + frame_length(prefix, max_frame)
    if len(buffer) < end:
        return None
    frame = bytes(buffer[_LENGTH_SIZE:end])
    del buffer[:end]
    return frame


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[bytes]:
    """Read one frame from an asyncio stream.

    Returns the frame bytes (length prefix stripped), ``None`` on a
    clean EOF at a frame boundary, and raises
    :class:`~repro.errors.RPCProtocolError` on an oversized length
    prefix (**before** reading the body, so a hostile prefix cannot
    force an allocation), an undersized one, or a mid-frame disconnect.
    """
    try:
        prefix = await reader.readexactly(_LENGTH_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise RPCProtocolError(
            "connection closed inside a length prefix"
        ) from exc
    length = frame_length(prefix, max_frame)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise RPCProtocolError("connection closed mid-frame") from exc
