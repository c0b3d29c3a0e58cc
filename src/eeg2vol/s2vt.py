"""S2VT binary tensor files and the checkpoint directory layout.

Layout: magic `S2VT`, version (u32 LE), dtype code (u32 LE; 1 = float32,
2 = float64), rank (u32 LE), one u32 LE extent per axis, then the payload
little-endian row-major. All persistence in this repo uses this format.

A checkpoint is a directory holding two files. `params.s2vt` is one 1-D
float64 S2VT tensor: every parameter flattened and concatenated in sorted
name order. `index.txt` holds `# key value` metadata lines and one
`name extent…` line per parameter, in that same order, where the extents
give the parameter's shape (none for a scalar); each parameter takes the
payload's values that follow the one before it.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, read_text

MAGIC = b"S2VT"
VERSION = 1
MAX_EXTENT = 2**32 - 1  # an extent is a u32
PAYLOAD = "params.s2vt"
INDEX = "index.txt"

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_KIND = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}


def write_tensor(path, array):
    array = np.ascontiguousarray(array)
    code = _CODE_FOR_KIND.get(array.dtype)
    if code is None:
        array = array.astype(np.float64)
        code = 2
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
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


def _open(path):
    """path opened for reading; a file that is missing, a directory or
    unreadable raises DataError naming it."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise DataError(f"tensor file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"tensor file unreadable: {path}: {exc.strerror}") from None


def read_tensor(path):
    with _open(path) as f:
        shape, dtype = _parse_header(f, path)
        # read straight into the array returned, with no bytes object between
        array = np.empty(shape, dtype=dtype)
        f.readinto(array.reshape(-1).view(np.uint8))
    return array


def read_header(path):
    """Shape and dtype without loading the payload, whose size is checked."""
    with _open(path) as f:
        return _parse_header(f, path)


def save_checkpoint(directory, named_params, extra=None):
    """Write every parameter into one S2VT payload plus a text index.

    named_params: mapping of stable parameter name -> numpy array.
    extra: optional metadata strings recorded as `# key value` lines.

    The payload holds the parameters flattened in sorted name order as one
    float64 tensor, and index.txt gives each one's name and shape in that
    order (see the module docstring). Both files are written under temporary
    names and renamed into place, payload first, so a save that fails
    part-way leaves the previous checkpoint loadable.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k} {v}" for k, v in (extra or {}).items()]
    flat = []
    for name in sorted(named_params):
        array = np.asarray(named_params[name])
        lines.append(" ".join([name, *map(str, array.shape)]))
        flat.append(array.reshape(-1))
    payload = np.concatenate(flat, dtype=np.float64) if flat else np.empty(0)
    payload_tmp = directory / (PAYLOAD + ".tmp")
    index_tmp = directory / (INDEX + ".tmp")
    try:
        write_tensor(payload_tmp, payload)
        index_tmp.write_text("\n".join(lines) + "\n")
        os.replace(payload_tmp, directory / PAYLOAD)
        os.replace(index_tmp, directory / INDEX)
    finally:
        payload_tmp.unlink(missing_ok=True)
        index_tmp.unlink(missing_ok=True)


def load_checkpoint(directory):
    """Return (params dict, extra metadata dict); the params are views of
    the one payload array.

    A repeated metadata key is a malformed line, and so is a parameter name
    that does not sort strictly after the one before it, which rules out a
    repeated name. The parameters' sizes must add up to exactly the
    payload's value count; each parameter then takes the values that follow
    the one before it.
    """
    directory = Path(directory)
    index = directory / INDEX
    shapes, extra, previous = {}, {}, ""
    for line in read_text(index, "checkpoint index", DataError).splitlines():
        line = line.strip()
        if not line:
            continue
        try:
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
        except ValueError:
            raise DataError(f"{index}: malformed line {line!r}") from None
        shapes[name], previous = shape, name
    payload = read_tensor(directory / PAYLOAD).reshape(-1)
    total = sum(math.prod(shape) for shape in shapes.values())
    if total != payload.size:
        raise DataError(
            f"{index}: parameter sizes add up to {total} values, "
            f"{PAYLOAD} holds {payload.size}"
        )
    params, end = {}, 0
    for name, shape in shapes.items():
        start, end = end, end + math.prod(shape)
        params[name] = payload[start:end].reshape(shape)
    return params, extra
