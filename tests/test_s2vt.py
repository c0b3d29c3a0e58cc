"""S2VT tensor files and checkpoint files."""

import errno
import hashlib
import io
import os
import struct

import numpy as np
import pytest

from eeg2vol import s2vt
from eeg2vol.errors import DataError
from eeg2vol.model import Model

from conftest import checkpoint_parts, index_line, join_checkpoint, rewrite_index


def test_round_trip_float64(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5))
    path = tmp_path / "a.s2vt"
    s2vt.write_tensor(path, arr)
    back = s2vt.read_tensor(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, arr)


def test_round_trip_float32(tmp_path):
    arr = np.arange(6.0, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "a.s2vt"
    s2vt.write_tensor(path, arr)
    back = s2vt.read_tensor(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_header_layout_and_read_header(tmp_path):
    arr = np.zeros((2, 7))
    path = tmp_path / "a.s2vt"
    s2vt.write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"S2VT"
    version, code, rank = struct.unpack("<III", raw[4:16])
    assert (version, code, rank) == (1, 2, 2)
    assert struct.unpack("<II", raw[16:24]) == (2, 7)
    shape, dtype = s2vt.read_header(path)
    assert shape == (2, 7) and dtype == np.dtype("<f8")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.s2vt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        s2vt.read_tensor(path)


def test_header_rank_past_file_end(tmp_path):
    """A rank whose extents the file cannot hold is a truncated header,
    found before reading (rank 2**32 - 1 would ask for 16 GiB)."""
    path = tmp_path / "huge.s2vt"
    path.write_bytes(b"S2VT" + struct.pack("<III", 1, 2, 0xFFFFFFFF) + bytes(16))
    with pytest.raises(DataError, match="truncated S2VT header"):
        s2vt.read_header(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.s2vt"
    s2vt.write_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError, match="payload"):
        s2vt.read_tensor(path)


def test_missing_file():
    with pytest.raises(DataError, match="not found"):
        s2vt.read_tensor("/nonexistent/file.s2vt")


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    params = {
        "enc.stage0.temporal.kernel": rng.standard_normal((2, 2, 3, 1)),
        "dec.head.weight": rng.standard_normal((3, 4)),
    }
    extra = {"geometry": "4 5 6 3 8 8", "epoch": "7"}
    s2vt.save_checkpoint(tmp_path / "ckpt", params, extra=extra)
    loaded, meta = s2vt.load_checkpoint(tmp_path / "ckpt")
    assert meta == extra
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    """A 1-element, a 4-D and a scalar parameter come back with the same
    shapes and the same bits."""
    rng = np.random.default_rng(2)
    params = {
        "a.bias": np.array([np.nextafter(1.0, 2.0)]),
        "b.kernel": rng.standard_normal((2, 3, 4, 5)),
        "c.scale": np.array(-0.0),
    }
    s2vt.save_checkpoint(tmp_path / "ckpt", params)
    loaded, _meta = s2vt.load_checkpoint(tmp_path / "ckpt")
    for name, array in params.items():
        assert loaded[name].shape == array.shape
        assert loaded[name].tobytes() == array.tobytes(), name


def test_checkpoint_is_one_payload_plus_index(tmp_path):
    """One file: the index, its sha256 line last among the metadata, an
    empty line, then the payload as one S2VT tensor."""
    params = {"w": np.ones((2, 3)), "b": np.zeros(3)}
    s2vt.save_checkpoint(tmp_path / "ckpt", params, extra={"epoch": "0"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
    values = np.concatenate([np.zeros(3), np.ones(6)])
    payload = tmp_path / "payload.s2vt"
    s2vt.write_tensor(payload, values)
    digest = hashlib.sha256(values.data).hexdigest()
    index = f"# epoch 0\n# sha256 {digest}\nb 3\nw 2 3\n\n".encode()
    assert (tmp_path / "ckpt").read_bytes() == index + payload.read_bytes()


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(DataError, match="checkpoint not found: .*ckpt"):
        s2vt.load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_directory_is_rejected(tmp_path):
    """A checkpoint of the earlier layout, a directory, does not load."""
    (tmp_path / "ckpt").mkdir()
    with pytest.raises(DataError, match="checkpoint unreadable: .*ckpt: Is a directory"):
        s2vt.load_checkpoint(tmp_path / "ckpt")


def saved_checkpoint(tmp_path):
    s2vt.save_checkpoint(tmp_path / "ckpt", {"w": np.ones((2, 3)), "b": np.zeros(3)})
    return tmp_path / "ckpt"


def test_checkpoint_cut_after_its_index(tmp_path):
    ckpt = saved_checkpoint(tmp_path)
    join_checkpoint(ckpt, checkpoint_parts(ckpt)[0], b"")
    with pytest.raises(DataError, match="truncated S2VT header"):
        s2vt.load_checkpoint(ckpt)


@pytest.mark.parametrize("line, message", [
    ("w 2 4", "parameter sizes add up to 11 values, the payload holds 9"),
    ("w 2 2", "parameter sizes add up to 7 values, the payload holds 9"),
    # a name alone is a scalar
    ("w", "parameter sizes add up to 4 values, the payload holds 9"),
    # the offset column of the earlier `name offset extent…` layout reads as
    # one more extent
    ("w 3 2 3", "parameter sizes add up to 21 values, the payload holds 9"),
    ("w w.s2vt", "malformed line 'w w.s2vt'"),
    ("w -1 3", "malformed line 'w -1 3'"),
    ("a 2 3", "malformed line 'a 2 3'"),
    ("w 2 3\nw 2 3", "malformed line 'w 2 3'"),
    ("# k 1\n# k 2\nw 2 3", "malformed line '# k 2'"),
], ids=["past-payload-end", "short-of-payload-end", "no-offset", "old-offset-layout",
        "old-file-layout", "negative-extent", "unsorted-names", "repeated-name", "repeated-key"])
def test_checkpoint_bad_index_line(tmp_path, line, message):
    ckpt = saved_checkpoint(tmp_path)
    rewrite_index(ckpt, "w 2 3", line)
    with pytest.raises(DataError, match=message):
        s2vt.load_checkpoint(ckpt)


def test_checkpoint_index_line_not_utf8(tmp_path):
    ckpt = saved_checkpoint(tmp_path)
    # byte 0xff, which no UTF-8 text holds; the index comes first in the file
    ckpt.write_bytes(ckpt.read_bytes().replace(b"w 2 3", b"w\xff 2 3", 1))
    with pytest.raises(DataError, match="malformed line 'w"):
        s2vt.load_checkpoint(ckpt)


def flip_last_payload_byte(ckpt):
    data = bytearray(ckpt.read_bytes())
    data[-1] ^= 0x01
    ckpt.write_bytes(bytes(data))


def drop_digest_line(ckpt):
    rewrite_index(ckpt, index_line(ckpt, "# sha256 ") + "\n", "")


def other_payloads_digest(ckpt):
    digest = hashlib.sha256(b"").hexdigest()
    rewrite_index(ckpt, index_line(ckpt, "# sha256 "), f"# sha256 {digest}")


@pytest.mark.parametrize("corrupt", [flip_last_payload_byte, drop_digest_line,
                                     other_payloads_digest])
def test_checkpoint_payload_must_match_its_digest(tmp_path, corrupt):
    """The payload is checked against its sha256 line, which must be there,
    before any parameter is sliced from it."""
    ckpt = saved_checkpoint(tmp_path)
    corrupt(ckpt)
    with pytest.raises(DataError, match="payload does not match its sha256 line"):
        s2vt.load_checkpoint(ckpt)


def test_checkpoint_digest_is_not_metadata(tmp_path):
    """load_checkpoint checks the sha256 line and leaves it out of the
    metadata it returns; a save replaces any sha256 passed in."""
    ckpt = tmp_path / "ckpt"
    s2vt.save_checkpoint(ckpt, {"w": np.ones(2)}, extra={"epoch": "3", "sha256": "0"})
    assert s2vt.load_checkpoint(ckpt)[1] == {"epoch": "3"}


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, micro_model):
    """A save that dies part-way through writing its temporary file, or at
    the rename that commits it, leaves the checkpoint it was replacing
    loadable to its old parameters and no temporary file behind; a save
    that completes commits with one rename and loads the new parameters."""
    ckpt = tmp_path / "best.ckpt"
    micro_model.save(ckpt)
    spec = np.random.default_rng(3).standard_normal(micro_model.cfg.geometry[:3])
    other = Model(micro_model.cfg, seed=1)

    def assert_loads_as(model):
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]
        reloaded = Model.from_checkpoint(ckpt)
        for name, array in model.store.named_arrays().items():
            assert np.array_equal(reloaded.store.named_arrays()[name], array), name
        assert np.array_equal(reloaded.predict(spec), model.predict(spec))

    room = ckpt.stat().st_size // 2  # bytes, past the index, inside the payload's values

    class DiskFills(io.FileIO):
        """A file whose disk fills room bytes in."""

        def write(self, data):
            data = bytes(data)
            if self.tell() + len(data) <= room:
                return super().write(data)
            super().write(data[:room - self.tell()])
            raise OSError(errno.ENOSPC, "No space left on device")

    def no_rename(src, dst):
        raise OSError(errno.EIO, "Input/output error")

    for target, name, failure in ((s2vt, "open", DiskFills), (os, "replace", no_rename)):
        monkeypatch.setattr(target, name, failure, raising=False)
        with pytest.raises(OSError):
            other.save(ckpt)
        monkeypatch.undo()
        assert_loads_as(micro_model)

    renames = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda *a: renames.append(a) or replace(*a))
    other.save(ckpt)
    monkeypatch.undo()
    assert len(renames) == 1
    assert_loads_as(other)
