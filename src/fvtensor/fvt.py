"""Binary serialization of function-valued tensors (FVT files).

Layout, all little-endian:

    magic   4 bytes  b"FVT1"
    u32     version, currently 1
    u32     d
    u64[d]  dims
    u64     h
    u8      gram kind: 0 identity, 1 diagonal, 2 dense
    f64[..] gram payload: h values (diagonal) or h*h row-major (dense)
    f64[..] prod(dims) * h entry coefficients, entries in big-endian
            multi-index order (first index slowest), coefficients
            contiguous per entry

The entry payload is exactly the C-order bytes of the ``dims + (h,)``
coefficient array, so a save/load round-trip is bitwise exact.
"""

import math
import struct

import numpy as np

from .btensor import BTensor
from .hilbert import InnerProduct, InnerProductError

MAGIC = b"FVT1"
VERSION = 1
_GRAM_CODES = {"identity": 0, "diagonal": 1, "dense": 2}
_GRAM_KINDS = {v: k for k, v in _GRAM_CODES.items()}


class FvtError(ValueError):
    """Malformed FVT file."""


class BadMagic(FvtError):
    pass


class BadVersion(FvtError):
    pass


class TruncatedFile(FvtError):
    pass


class NonSPDGram(FvtError):
    pass


def save_fvt(A, path):
    """Write a BTensor to ``path`` in the FVT format.

    A tensor with an empty mode is an ``FvtError`` and no file is
    written: :func:`load_fvt` would refuse it.
    """
    dims = A.dims
    ip = A.ip
    if any(n < 1 for n in dims):
        raise FvtError(f"dims must be positive, got {dims}")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(dims)))
        f.write(struct.pack(f"<{len(dims)}Q", *dims))
        f.write(struct.pack("<Q", A.h))
        f.write(struct.pack("<B", _GRAM_CODES[ip.kind]))
        if ip.kind == "diagonal":
            f.write(np.ascontiguousarray(ip.weights, dtype="<f8").tobytes())
        elif ip.kind == "dense":
            f.write(np.ascontiguousarray(ip.gram, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(A.data, dtype="<f8").tobytes())


def _take(buf, offset, nbytes, what):
    """Slice of the memoryview ``buf``: a view, so no payload is copied."""
    if offset + nbytes > len(buf):
        raise TruncatedFile(f"file ends inside {what}")
    return buf[offset:offset + nbytes], offset + nbytes


def load_fvt(path):
    """Read an FVT file back into a BTensor.

    Validates the magic, version, payload arithmetic, and the Gram
    specification (a dense Gram must be SPD).
    """
    with open(path, "rb") as f:
        buf = memoryview(f.read())

    raw, off = _take(buf, 0, 4, "magic")
    if raw != MAGIC:
        raise BadMagic(f"bad magic {bytes(raw)!r}")
    raw, off = _take(buf, off, 8, "header")
    version, d = struct.unpack("<II", raw)
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}")
    if d < 1:
        raise FvtError("tensor order must be positive")
    raw, off = _take(buf, off, 8 * d, "dims")
    dims = struct.unpack(f"<{d}Q", raw)
    raw, off = _take(buf, off, 8, "h")
    (h,) = struct.unpack("<Q", raw)
    if h < 1 or any(n < 1 for n in dims):
        raise FvtError("dims and h must be positive")
    raw, off = _take(buf, off, 1, "gram kind")
    kind_code = raw[0]
    if kind_code not in _GRAM_KINDS:
        raise FvtError(f"unknown gram kind {kind_code}")
    kind = _GRAM_KINDS[kind_code]

    try:
        if kind == "identity":
            ip = InnerProduct.identity(h)
        elif kind == "diagonal":
            raw, off = _take(buf, off, 8 * h, "gram payload")
            # a copy: a view would keep the whole file's bytes alive
            ip = InnerProduct.diagonal(np.frombuffer(raw, dtype="<f8").copy())
        else:
            raw, off = _take(buf, off, 8 * h * h, "gram payload")
            gram = np.frombuffer(raw, dtype="<f8").reshape(h, h)
            ip = InnerProduct.dense(gram)
    except InnerProductError as exc:
        raise NonSPDGram(str(exc)) from exc

    # exact ints: an int64 product of hostile dims can wrap to a small size
    nbytes = 8 * math.prod(dims) * h
    raw, off = _take(buf, off, nbytes, "entry payload")
    if off != len(buf):
        raise TruncatedFile(f"{len(buf) - off} trailing bytes")
    data = np.frombuffer(raw, dtype="<f8").astype(float).reshape(dims + (h,))
    return BTensor(data, ip)
