"""Versioned binary container for named tensors plus a JSON header.

Layout: magic, format version, length-prefixed canonical JSON header, then
for each tensor (in sorted name order) a length-prefixed JSON descriptor
{name, dtype, shape} followed by the raw little-endian C-order bytes.
Writing the same arrays and header twice produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import ContractError, open_input

MAGIC = b"DOTC"
VERSION = 1

_DTYPES = ("<f4", "<f8")


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_tensors(path, named: dict[str, np.ndarray], header: dict) -> None:
    header_bytes = _canon(header)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(named)))
        for name in sorted(named):
            arr = np.asarray(named[name], order="C")
            dtype = arr.dtype.newbyteorder("<").str
            if dtype not in _DTYPES:
                raise ContractError(f"unsupported dtype {arr.dtype} for tensor {name!r}")
            desc = _canon({"name": name, "dtype": dtype, "shape": list(arr.shape)})
            fh.write(struct.pack("<Q", len(desc)))
            fh.write(desc)
            data = arr.astype(dtype, copy=False).tobytes(order="C")
            fh.write(struct.pack("<Q", len(data)))
            fh.write(data)


def _check_left(fh, n: int, path) -> None:
    # a length field is refused before it sizes any buffer
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ContractError(f"{path} is truncated")


def _read(fh, n: int, path) -> bytes:
    _check_left(fh, n, path)
    data = fh.read(n)
    if len(data) != n:
        raise ContractError(f"{path} is truncated")
    return data


def _read_array(fh, n: int, dtype: str, shape: tuple[int, ...], path) -> np.ndarray:
    """The next ``n`` bytes read straight into a fresh writable array."""
    _check_left(fh, n, path)
    arr = np.empty(shape, dtype=dtype)
    if fh.readinto(arr.reshape(-1).view(np.uint8)) != n:
        raise ContractError(f"{path} is truncated")
    return arr


def _read_json(fh, n: int, path):
    try:
        return json.loads(_read(fh, n, path).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as e:
        raise ContractError(f"{path}: corrupt JSON record ({e})") from None


def load_tensors(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of ``save_tensors``; a missing, malformed or truncated file,
    or one with bytes after its last tensor, raises ``ContractError``."""
    with open_input(path, ContractError, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ContractError(f"{path} is not a tensor container")
        (version,) = struct.unpack("<I", _read(fh, 4, path))
        if version != VERSION:
            raise ContractError(f"unsupported container version {version}")
        (hlen,) = struct.unpack("<Q", _read(fh, 8, path))
        header = _read_json(fh, hlen, path)
        if not isinstance(header, dict):
            raise ContractError(f"{path}: header is not a JSON object")
        (count,) = struct.unpack("<I", _read(fh, 4, path))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (dlen,) = struct.unpack("<Q", _read(fh, 8, path))
            desc = _read_json(fh, dlen, path)
            try:
                name, dtype, shape = desc["name"], desc["dtype"], tuple(desc["shape"])
                if not isinstance(name, str) or dtype not in _DTYPES or not all(
                        isinstance(d, int) and d >= 0 for d in shape):
                    raise ValueError
            except (KeyError, TypeError, ValueError):
                raise ContractError(f"{path}: bad tensor descriptor {desc!r}") from None
            if name in tensors:
                raise ContractError(f"{path}: tensor {name!r} is stored twice")
            (blen,) = struct.unpack("<Q", _read(fh, 8, path))
            if blen != np.dtype(dtype).itemsize * math.prod(shape):
                raise ContractError(f"{path}: tensor {name!r} has {blen} bytes "
                                    f"for shape {list(shape)}")
            tensors[name] = _read_array(fh, blen, dtype, shape, path)
        extra = os.fstat(fh.fileno()).st_size - fh.tell()
        if extra:
            raise ContractError(f"{path}: {extra} bytes follow the last tensor")
    return header, tensors
