"""GDSII stream-format primitives.

The GDSII stream format (Calma GDSII Stream Format, release 6) is the
interchange format the paper's industrial layouts live in.  A file is a
sequence of records::

    +--------+--------+----------+-----------------+
    | length (2B, BE) | type(1B) | datatype (1B)   |  payload ...
    +--------+--------+----------+-----------------+

``length`` includes the 4 header bytes.  Multi-byte integers are
big-endian; reals use the exotic excess-64 base-16 format implemented in
:func:`encode_real8` / :func:`decode_real8`.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

# Record types (subset sufficient for layout interchange).
HEADER = 0x00
BGNLIB = 0x01
LIBNAME = 0x02
UNITS = 0x03
ENDLIB = 0x04
BGNSTR = 0x05
STRNAME = 0x06
ENDSTR = 0x07
BOUNDARY = 0x08
PATH = 0x09
SREF = 0x0A
AREF = 0x0B
TEXT = 0x0C
LAYER = 0x0D
DATATYPE = 0x0E
WIDTH = 0x0F
XY = 0x10
ENDEL = 0x11
SNAME = 0x12
COLROW = 0x13
TEXTTYPE = 0x16
PRESENTATION = 0x17
STRING = 0x19
STRANS = 0x1A
MAG = 0x1B
ANGLE = 0x1C
PATHTYPE = 0x21

RECORD_NAMES = {
    HEADER: "HEADER", BGNLIB: "BGNLIB", LIBNAME: "LIBNAME",
    UNITS: "UNITS", ENDLIB: "ENDLIB", BGNSTR: "BGNSTR",
    STRNAME: "STRNAME", ENDSTR: "ENDSTR", BOUNDARY: "BOUNDARY",
    PATH: "PATH", SREF: "SREF", AREF: "AREF", TEXT: "TEXT",
    LAYER: "LAYER", DATATYPE: "DATATYPE", WIDTH: "WIDTH", XY: "XY",
    ENDEL: "ENDEL", SNAME: "SNAME", COLROW: "COLROW",
    TEXTTYPE: "TEXTTYPE", PRESENTATION: "PRESENTATION",
    STRING: "STRING", STRANS: "STRANS", MAG: "MAG", ANGLE: "ANGLE",
    PATHTYPE: "PATHTYPE",
}

# Data types.
DT_NONE = 0
DT_BITARRAY = 1
DT_INT16 = 2
DT_INT32 = 3
DT_REAL4 = 4
DT_REAL8 = 5
DT_ASCII = 6


class GdsFormatError(ValueError):
    """Raised on malformed GDSII streams."""


def encode_real8(value: float) -> bytes:
    """Encode a float as a GDSII 8-byte real.

    Format: 1 sign bit, 7-bit excess-64 base-16 exponent, 56-bit
    mantissa with value = mantissa * 16**(exponent-64), mantissa in
    [1/16, 1).
    """
    if value == 0.0:
        return b"\x00" * 8
    sign = 0x80 if value < 0 else 0x00
    mantissa = abs(value)
    exponent = 64
    while mantissa >= 1.0:
        mantissa /= 16.0
        exponent += 1
    while mantissa < 1.0 / 16.0:
        mantissa *= 16.0
        exponent -= 1
    if not 0 <= exponent <= 127:
        raise GdsFormatError(f"real8 exponent out of range for {value}")
    frac = int(round(mantissa * (1 << 56)))
    if frac >= 1 << 56:  # rounding overflow: renormalise
        frac >>= 4
        exponent += 1
    out = bytearray(8)
    out[0] = sign | exponent
    for i in range(7):
        out[7 - i] = frac >> (8 * i) & 0xFF
    return bytes(out)


def decode_real8(data: bytes) -> float:
    if len(data) != 8:
        raise GdsFormatError(f"real8 needs 8 bytes, got {len(data)}")
    if data == b"\x00" * 8:
        return 0.0
    sign = -1.0 if data[0] & 0x80 else 1.0
    exponent = (data[0] & 0x7F) - 64
    frac = 0
    for byte in data[1:]:
        frac = frac << 8 | byte
    return sign * frac / float(1 << 56) * 16.0 ** exponent


def pack_record(rtype: int, dtype: int, payload: bytes = b"") -> bytes:
    """Serialize one record (padding odd-length ASCII with NUL)."""
    if dtype == DT_ASCII and len(payload) % 2 == 1:
        payload += b"\x00"
    length = 4 + len(payload)
    if length > 0xFFFF:
        raise GdsFormatError(f"record too long: {length}")
    return struct.pack(">HBB", length, rtype, dtype) + payload


def pack_int16(rtype: int, values: List[int]) -> bytes:
    return pack_record(rtype, DT_INT16,
                       b"".join(struct.pack(">h", v) for v in values))


def pack_int32(rtype: int, values: List[int]) -> bytes:
    return pack_record(rtype, DT_INT32,
                       b"".join(struct.pack(">i", v) for v in values))


def pack_real8(rtype: int, values: List[float]) -> bytes:
    return pack_record(rtype, DT_REAL8,
                       b"".join(encode_real8(v) for v in values))


def pack_ascii(rtype: int, text: str) -> bytes:
    return pack_record(rtype, DT_ASCII, text.encode("ascii"))


def iter_records(data: bytes):
    """Yield (record type, data type, payload) triples from a stream."""
    offset = 0
    n = len(data)
    while offset < n:
        if offset + 4 > n:
            raise GdsFormatError("truncated record header")
        length, rtype, dtype = struct.unpack_from(">HBB", data, offset)
        if length < 4:
            # Some writers pad the tail with zero words; stop there.
            if length == 0 and data[offset:].strip(b"\x00") == b"":
                return
            raise GdsFormatError(f"bad record length {length}")
        if offset + length > n:
            raise GdsFormatError("record extends past end of stream")
        yield rtype, dtype, data[offset + 4:offset + length]
        offset += length


def unpack_int16(payload: bytes) -> List[int]:
    if len(payload) % 2:
        raise GdsFormatError("odd int16 payload")
    return [struct.unpack_from(">h", payload, i)[0]
            for i in range(0, len(payload), 2)]


def unpack_int32(payload: bytes) -> List[int]:
    if len(payload) % 4:
        raise GdsFormatError("int32 payload not multiple of 4")
    return [struct.unpack_from(">i", payload, i)[0]
            for i in range(0, len(payload), 4)]


def unpack_real8(payload: bytes) -> List[float]:
    if len(payload) % 8:
        raise GdsFormatError("real8 payload not multiple of 8")
    return [decode_real8(payload[i:i + 8])
            for i in range(0, len(payload), 8)]


def unpack_ascii(payload: bytes) -> str:
    try:
        return payload.rstrip(b"\x00").decode("ascii")
    except UnicodeDecodeError:
        raise GdsFormatError(f"non-ASCII string {payload!r}") from None


def unpack_xy(payload: bytes) -> List[Tuple[int, int]]:
    values = unpack_int32(payload)
    if len(values) % 2:
        raise GdsFormatError("XY payload with odd coordinate count")
    return list(zip(values[0::2], values[1::2]))
