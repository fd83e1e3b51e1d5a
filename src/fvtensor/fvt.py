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
coefficient array, so a save/load round-trip is bitwise exact.  Both
directions move the payload between the file and the array's own buffer,
with no copy of it in between.
"""

import math
import os
import struct
import sys

import numpy as np

from .btensor import SLAB, BTensor
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
            f.write(np.ascontiguousarray(ip.weights, dtype="<f8").data)
        elif ip.kind == "dense":
            f.write(np.ascontiguousarray(ip.gram, dtype="<f8").data)
        # the array's own buffer when it is already little-endian and
        # contiguous: no bytes copy of the payload
        f.write(np.ascontiguousarray(A.data, dtype="<f8").data)


def _take(f, nbytes, what):
    """The next ``nbytes`` of the open file ``f``; ``TruncatedFile`` if the
    file, by its size on disk, ends first, before anything is read."""
    if f.tell() + nbytes > os.fstat(f.fileno()).st_size:
        raise TruncatedFile(f"file ends inside {what}")
    return f.read(nbytes)


def _dims(f):
    """Dims from the start of the open FVT file ``f``, after the magic and
    version checks; ``f`` is left just past them."""
    raw = _take(f, 4, "magic")
    if raw != MAGIC:
        raise BadMagic(f"bad magic {raw!r}")
    version, d = struct.unpack("<II", _take(f, 8, "header"))
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}")
    if d < 1:
        raise FvtError("tensor order must be positive")
    return struct.unpack(f"<{d}Q", _take(f, 8 * d, "dims"))


def read_dims(path):
    """Dims of the FVT file at ``path``, read from its header alone."""
    with open(path, "rb") as f:
        return _dims(f)


def load_fvt(path):
    """Read an FVT file back into a BTensor.

    Validates the magic, version, payload arithmetic, the Gram
    specification (a dense Gram must be SPD) and the entries: a NaN or
    infinite coefficient is a ``NonFiniteEntry`` naming the first entry
    (in file order) that holds one.  The payload size is checked against
    the file's size before the array is allocated, and the payload is read
    straight into that array.
    """
    with open(path, "rb") as f:
        dims = _dims(f)
        (h,) = struct.unpack("<Q", _take(f, 8, "h"))
        if h < 1 or any(n < 1 for n in dims):
            raise FvtError("dims and h must be positive")
        kind_code = _take(f, 1, "gram kind")[0]
        if kind_code not in _GRAM_KINDS:
            raise FvtError(f"unknown gram kind {kind_code}")
        kind = _GRAM_KINDS[kind_code]

        try:
            if kind == "identity":
                ip = InnerProduct.identity(h)
            elif kind == "diagonal":
                raw = _take(f, 8 * h, "gram payload")
                ip = InnerProduct.diagonal(np.frombuffer(raw, dtype="<f8"))
            else:
                raw = _take(f, 8 * h * h, "gram payload")
                ip = InnerProduct.dense(
                    np.frombuffer(raw, dtype="<f8").reshape(h, h))
        except InnerProductError as exc:
            raise NonSPDGram(str(exc)) from exc

        # exact ints: an int64 product of hostile dims can wrap to a small size
        nbytes = 8 * math.prod(dims) * h
        trailing = os.fstat(f.fileno()).st_size - f.tell() - nbytes
        if trailing < 0:
            raise TruncatedFile("file ends inside entry payload")
        if trailing > 0:
            raise TruncatedFile(f"{trailing} trailing bytes")
        data = np.empty(dims + (h,))
        if f.readinto(data.reshape(-1).view(np.uint8)) != nbytes:
            raise TruncatedFile("file ends inside entry payload")
    if sys.byteorder == "big":
        data.byteswap(inplace=True)
    flat = data.reshape(-1)
    for start in range(0, flat.size, SLAB):
        finite = np.isfinite(flat[start:start + SLAB])
        if not finite.all():
            at = np.unravel_index(start + np.argmin(finite), data.shape)
            raise NonFiniteEntry("non-finite coefficient in entry "
                                 f"{tuple(int(i) for i in at[:-1])} (0-based)")
    return BTensor(data, ip)
