"""The segment container: named numpy arrays in one flat, checked file.

Layout (integers little-endian)::

    magic      8 bytes    MAGIC
    crc32      4 bytes    zlib.crc32 of every byte after this field
    table_len  4 bytes
    table      table_len bytes of JSON: one {"name", "dtype", "shape",
               "planes": [[stored length, deflated], ...]} per member
    blobs      the planes of every member, back to back in table order
               (a plane's offset is the sum of the stored lengths before it)

A numeric member of more than one element and ``itemsize`` k is written
as k byte planes -- plane ``i`` holds byte ``i`` of every element, the
"shuffle" of HDF5 / blosc -- and any other member as one plane of its raw
bytes.  Shuffling sorts bytes by how predictable they are: a float's
sign / exponent plane and an int's high planes deflate well, its low
mantissa planes are noise.  So each plane is deflated only when that
saves at least ``1 / MIN_SAVING`` of it and is stored raw otherwise, and
loading a raw plane is ``np.frombuffer`` rather than an inflate.

:func:`unpack` checks the magic and the CRC before it parses anything,
so a torn or bit-flipped file is a ``SerializationError`` even where no
manifest checksum guards it, and every array it returns is freshly
allocated and writeable.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from repro.errors import SerializationError

MAGIC = b"LANNSPL1"
#: magic, crc32 of the rest of the file, table length.
_HEADER = struct.Struct("<8sII")
#: A plane is deflated only when that saves at least 1/MIN_SAVING of it.
MIN_SAVING = 16
#: zlib level.  On a 4000 x 64 float32 segment level 1 packs in 39 ms
#: to 253 B/vec, level 6 in 93 ms to 249 B/vec (most of that time is
#: spent learning that the mantissa planes do not compress); both
#: unpack in ~3.4 ms.
_LEVEL = 1
#: dtype kinds (bool, int, uint, float, complex) split into byte planes.
_NUMERIC = "biufc"


def _width(dtype: np.dtype, count: int) -> int:
    """Planes a member of ``count`` elements of ``dtype`` is split into."""
    if dtype.kind in _NUMERIC and count > 1:
        return dtype.itemsize
    return 1


def pack(members: dict) -> bytes:
    """The container bytes of ``{name: array}``."""
    table, blobs = [], []
    for name, value in members.items():
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise TypeError(f"member {name!r} has object dtype {array.dtype}")
        width = _width(array.dtype, array.size)
        raw = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        planes = []
        for row in np.ascontiguousarray(raw.reshape(-1, width).T):
            plane = row.tobytes()
            packed = zlib.compress(plane, _LEVEL)
            deflated = len(packed) * MIN_SAVING <= (MIN_SAVING - 1) * len(plane)
            blobs.append(packed if deflated else plane)
            planes.append([len(blobs[-1]), int(deflated)])
        table.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "planes": planes,
        })
    head = json.dumps(table, separators=(",", ":")).encode()
    body = b"".join([struct.pack("<I", len(head)), head, *blobs])
    return MAGIC + struct.pack("<I", zlib.crc32(body)) + body


def unpack(data) -> dict:
    """Inverse of :func:`pack`; bytes it did not write are a
    :class:`~repro.errors.SerializationError` saying what is wrong."""
    view = memoryview(data)
    if len(view) < _HEADER.size:
        raise SerializationError(
            f"{len(view)} bytes is shorter than the {_HEADER.size}-byte header"
        )
    magic, crc, table_len = _HEADER.unpack_from(view)
    if magic != MAGIC:
        raise SerializationError(f"magic is {magic!r}, expected {MAGIC!r}")
    if zlib.crc32(view[len(MAGIC) + 4 :]) != crc:
        raise SerializationError("CRC32 of the body does not match its header")
    offset = _HEADER.size + table_len
    members = {}
    try:
        for entry in json.loads(bytes(view[_HEADER.size : offset])):
            name, dtype = entry["name"], np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            if dtype.hasobject or len(entry["planes"]) != _width(dtype, count):
                raise ValueError(f"member {name!r} has a bad dtype or plane count")
            planes = []
            for length, deflated in entry["planes"]:
                blob = view[offset : offset + length]
                if len(blob) != length:
                    raise ValueError(f"member {name!r} runs past the end")
                offset += length
                planes.append(np.frombuffer(
                    zlib.decompress(blob) if deflated else blob, np.uint8
                ))
            flat = np.stack(planes, axis=1).reshape(-1)
            if flat.size != count * dtype.itemsize:
                raise ValueError(f"member {name!r} holds {flat.size} bytes")
            members[name] = flat.view(dtype).reshape(shape)
    except (ValueError, TypeError, KeyError, zlib.error) as error:
        raise SerializationError(f"bad member table ({error})") from error
    if offset != len(view):
        raise SerializationError(f"{len(view) - offset} bytes past the last member")
    return members
