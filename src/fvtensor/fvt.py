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
_CHECK_CHUNK = 1 << 16  # coefficients per finiteness mask in load_fvt


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


class NonFiniteEntry(FvtError):
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


def _dims(buf):
    """Dims from the start of an FVT file, after the magic and version
    checks, and the offset just past them."""
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
    return struct.unpack(f"<{d}Q", raw), off


def read_dims(path):
    """Dims of the FVT file at ``path``, read from its header alone."""
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) == 12 and head[:4] == MAGIC:
            head += f.read(8 * struct.unpack("<I", head[8:])[0])
    return _dims(memoryview(head))[0]


def load_fvt(path):
    """Read an FVT file back into a BTensor.

    Validates the magic, version, payload arithmetic, the Gram
    specification (a dense Gram must be SPD) and the entries: a NaN or
    infinite coefficient is a ``NonFiniteEntry`` naming the first entry
    (in file order) that holds one.
    """
    with open(path, "rb") as f:
        buf = memoryview(f.read())

    dims, off = _dims(buf)
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
    flat = data.reshape(-1)
    for start in range(0, flat.size, _CHECK_CHUNK):
        finite = np.isfinite(flat[start:start + _CHECK_CHUNK])
        if not finite.all():
            at = np.unravel_index(start + np.argmin(finite), data.shape)
            raise NonFiniteEntry("non-finite coefficient in entry "
                                 f"{tuple(int(i) for i in at[:-1])} (0-based)")
    return BTensor(data, ip)
