"""S2VT binary tensor files and the checkpoint directory layout.

Layout: magic `S2VT`, version (u32 LE), dtype code (u32 LE; 1 = float32,
2 = float64), rank (u32 LE), one u32 LE extent per axis, then the payload
little-endian row-major. All persistence in this repo uses this format.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"S2VT"
VERSION = 1

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
        f.write(array.astype(_DTYPE_CODES[code], copy=False).tobytes())


def _read_exact(f, path, size):
    data = f.read(size)
    if len(data) != size:
        raise DataError(f"{path}: truncated S2VT header")
    return data


def _parse_header(f, path):
    """Read and check the header of an open S2VT file; returns (shape, dtype)
    with f positioned at the payload."""
    magic = _read_exact(f, path, 4)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version, code, rank = struct.unpack("<III", _read_exact(f, path, 12))
    if version != VERSION:
        raise DataError(f"{path}: unsupported S2VT version {version}")
    if code not in _DTYPE_CODES:
        raise DataError(f"{path}: unknown dtype code {code}")
    shape = struct.unpack(f"<{rank}I", _read_exact(f, path, 4 * rank))
    return shape, _DTYPE_CODES[code]


def _existing(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"tensor file not found: {path}")
    return path


def read_tensor(path):
    path = _existing(path)
    with open(path, "rb") as f:
        shape, dtype = _parse_header(f, path)
        payload = f.read()
    array = np.frombuffer(payload, dtype=dtype)
    expected = int(np.prod(shape, dtype=np.int64))
    if array.size != expected:
        raise DataError(
            f"{path}: payload holds {array.size} values, header promises {expected}"
        )
    return array.reshape(shape).copy()


def read_header(path):
    """Shape and dtype without loading the payload."""
    path = _existing(path)
    with open(path, "rb") as f:
        return _parse_header(f, path)


def save_checkpoint(directory, named_params, extra=None):
    """Write one S2VT file per parameter plus a text index.

    named_params: mapping of stable parameter name -> numpy array.
    extra: optional metadata strings recorded as `# key value` lines.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    if extra:
        for k, v in extra.items():
            lines.append(f"# {k} {v}")
    for name in sorted(named_params):
        fname = name.replace("/", "_") + ".s2vt"
        write_tensor(directory / fname, named_params[name])
        lines.append(f"{name} {fname}")
    (directory / "index.txt").write_text("\n".join(lines) + "\n")


def load_checkpoint(directory):
    """Return (params dict, extra metadata dict)."""
    directory = Path(directory)
    index = directory / "index.txt"
    if not index.exists():
        raise DataError(f"checkpoint index not found: {index}")
    params, extra = {}, {}
    for line in index.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                _, key, value = line.split(" ", 2)
                extra[key] = value
                continue
            name, fname = line.rsplit(" ", 1)
        except ValueError:
            raise DataError(f"{index}: malformed line {line!r}") from None
        params[name] = read_tensor(directory / fname)
    return params, extra
