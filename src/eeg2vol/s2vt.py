"""S2VT binary tensor files and the checkpoint file layout.

Layout: magic `S2VT`, version (u32 LE), dtype code (u32 LE; 1 = float32,
2 = float64), rank (u32 LE), one u32 LE extent per axis, then the payload
little-endian row-major. All persistence in this repo uses this format.

A checkpoint is one file: an index of text lines, one empty line, then the
payload, one 1-D float64 S2VT tensor holding every parameter flattened and
concatenated in sorted name order. The index holds `# key value` metadata
lines, the last of them `# sha256 <hex>`, the digest of the payload's
values, then one `name extent…` line per parameter, in that same order,
where the extents give the parameter's shape (none for a scalar); each
parameter takes the payload's values that follow the one before it.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"S2VT"
VERSION = 1
MAX_EXTENT = 2**32 - 1  # an extent is a u32

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def write_tensor(path, array, head=b""):
    """Write array to path as an S2VT tensor, after the bytes head."""
    array = np.ascontiguousarray(array)
    code = _CODE_FOR_KIND.get(array.dtype)
    if code is None:
        array = array.astype(np.float64)
        code = 2
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(head)
        f.write(MAGIC)
        f.write(struct.pack("<III", VERSION, code, array.ndim))
        f.write(struct.pack(f"<{array.ndim}I", *array.shape))
        f.write(array.astype(_DTYPE_CODES[code], copy=False).data)


def _read_exact(f, path, size):
    """size header bytes of f; the file's length is checked first, so a
    corrupt rank costs no allocation of its extents."""
    if size > os.fstat(f.fileno()).st_size - f.tell():
        raise DataError(f"{path}: truncated S2VT header")
    return f.read(size)


def _parse_header(f, path):
    """Read and check the header of an open S2VT file and its payload's size;
    returns (shape, dtype) with f positioned at the payload."""
    magic = _read_exact(f, path, 4)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version, code, rank = struct.unpack("<III", _read_exact(f, path, 12))
    if version != VERSION:
        raise DataError(f"{path}: unsupported S2VT version {version}")
    if code not in _DTYPE_CODES:
        raise DataError(f"{path}: unknown dtype code {code}")
    shape = struct.unpack(f"<{rank}I", _read_exact(f, path, 4 * rank))
    dtype = _DTYPE_CODES[code]
    payload_bytes = os.fstat(f.fileno()).st_size - f.tell()
    if payload_bytes != math.prod(shape) * dtype.itemsize:
        raise DataError(
            f"{path}: payload holds {payload_bytes // dtype.itemsize} values, "
            f"header promises {math.prod(shape)}"
        )
    return shape, dtype


def _open(path, what="tensor file"):
    """path opened for reading; a file that is missing, a directory or
    unreadable raises DataError naming what and path."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise DataError(f"{what} unreadable: {path}: {exc.strerror}") from None


def read_tensor(path, start=0):
    """The S2VT tensor that starts start bytes into path and runs to its end."""
    with _open(path) as f:
        f.seek(start)
        shape, dtype = _parse_header(f, path)
        # read straight into the array returned, with no bytes object between
        array = np.empty(shape, dtype=dtype)
        f.readinto(array.reshape(-1).view(np.uint8))
    return array


def read_header(path):
    """Shape and dtype without loading the payload, whose size is checked."""
    with _open(path) as f:
        return _parse_header(f, path)


def save_checkpoint(path, named_params, extra=None):
    """Write every parameter into the one checkpoint file path, laid out as
    the module docstring says.

    named_params: mapping of stable parameter name -> numpy array.
    extra: optional metadata strings recorded as `# key value` lines.

    The file is written as `<name>.tmp` beside path and renamed onto it, the
    only commit, so a save whose process fails or is killed at any step
    leaves the previous checkpoint whole (nothing is fsynced, so a machine
    that goes down may not).
    """
    path = Path(path)
    names = sorted(named_params)
    arrays = [np.asarray(named_params[name]) for name in names]
    payload = np.concatenate([a.reshape(-1) for a in arrays] or [np.empty(0)], dtype="<f8")
    meta = {**(extra or {}), "sha256": hashlib.sha256(payload.data).hexdigest()}
    lines = [f"# {k} {v}" for k, v in meta.items()]
    lines += [" ".join([name, *map(str, a.shape)]) for name, a in zip(names, arrays)]
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_tensor(tmp, payload, head=("\n".join(lines) + "\n\n").encode())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path):
    """Return (params dict, extra metadata dict without `sha256`); the
    params are views of the one payload array.

    A repeated metadata key is a malformed line, and so is a parameter name
    that does not sort strictly after the one before it, which rules out a
    repeated name. The payload must match its `# sha256` digest, and the
    parameters' sizes must add up to exactly its value count; each
    parameter then takes the values that follow the one before it.
    """
    shapes, extra, previous = {}, {}, ""
    with _open(path, "checkpoint") as f:
        # the index ends at its empty line; an end of file before it fails the header check
        while (raw := f.readline()) not in (b"\n", b""):
            try:
                line = raw.decode().strip()
                if line.startswith("#"):
                    _, key, value = line.split(" ", 2)
                    if key in extra:
                        raise ValueError
                    extra[key] = value
                    continue
                name, *fields = line.split()
                shape = tuple(int(v) for v in fields)
                if min(shape, default=0) < 0 or name <= previous:
                    raise ValueError
            except ValueError:  # which a line that is not UTF-8 also raises
                line = raw.decode(errors="replace").strip()
                raise DataError(f"{path}: malformed line {line!r}") from None
            shapes[name], previous = shape, name
        payload_at = f.tell()
    payload = read_tensor(path, payload_at).reshape(-1)
    if hashlib.sha256(payload.data).hexdigest() != extra.pop("sha256", None):
        raise DataError(f"{path}: payload does not match its sha256 line, or has none")
    total = sum(math.prod(shape) for shape in shapes.values())
    if total != payload.size:
        raise DataError(f"{path}: parameter sizes add up to {total} values, "
                        f"the payload holds {payload.size}")
    params, end = {}, 0
    for name, shape in shapes.items():
        start, end = end, end + math.prod(shape)
        params[name] = payload[start:end].reshape(shape)
    return params, extra
