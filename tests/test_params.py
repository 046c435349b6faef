import struct

import numpy as np
import pytest

from vista.errors import CheckpointError
from vista.params import MAGIC, ParamStore


def random_store(seed=0):
    rng = np.random.default_rng(seed)
    return ParamStore({
        "alpha.w": rng.normal(size=(3, 4)),
        "alpha.b": rng.normal(size=(4,)),
        "beta": rng.normal(size=(2, 2, 5)),
    })


def test_roundtrip_bit_identical(tmp_path):
    store = random_store()
    path = tmp_path / "ckpt.bin"
    store.save(path)
    loaded = ParamStore.load(path)
    assert loaded.names() == store.names()
    for name in store.names():
        assert np.array_equal(loaded[name].data, store[name].data)
        assert loaded[name].data.dtype == np.float64


def test_iteration_order_stable_across_save_load(tmp_path):
    store = ParamStore({name: np.zeros(2) for name in ["z.last", "a.first", "m.middle"]})
    path = tmp_path / "ckpt.bin"
    store.save(path)
    assert ParamStore.load(path).names() == ["z.last", "a.first", "m.middle"]


def test_truncated_file_errors_without_partial_load(tmp_path):
    store = random_store()
    path = tmp_path / "ckpt.bin"
    store.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(CheckpointError, match="truncated"):
        ParamStore.load(path)


def corrupt_first_entry(blob, how):
    """``blob``, a saved checkpoint, with its first entry's header broken:
    a name that is not UTF-8, extents (2^62, 4) whose int64 product wraps to
    0, or an empty entry with an extent beyond int64."""
    name_end = len(MAGIC) + 8 + int.from_bytes(blob[6:14], "little")
    if how == "name_not_utf8":
        return blob[:14] + b"\xff" + blob[15:]
    extents = {"extents_wrap_int64": (2**62, 4), "empty_extent_beyond_int64": (2**63, 0)}[how]
    header = struct.pack("<3Q", 2, *extents)
    return blob[:name_end] + header + b"\x00" * 64


CORRUPT_HEADERS = {
    "name_not_utf8": "not UTF-8 at byte 14",
    "extents_wrap_int64": "truncated",
    "empty_extent_beyond_int64": r"extents \(9223372036854775808, 0\)",
}


@pytest.mark.parametrize("how", sorted(CORRUPT_HEADERS))
def test_corrupt_entry_header_raises_checkpoint_error(tmp_path, how):
    path = tmp_path / "ckpt.bin"
    random_store().save(path)
    path.write_bytes(corrupt_first_entry(path.read_bytes(), how))
    with pytest.raises(CheckpointError, match=CORRUPT_HEADERS[how]):
        ParamStore.load(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "ckpt.bin"
    path.write_bytes(b"NOTVISTA" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        ParamStore.load(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_rejected_by_name(tmp_path, bad):
    store = random_store()
    store["alpha.b"].data[2] = bad
    path = tmp_path / "ckpt.bin"
    store.save(path)
    with pytest.raises(CheckpointError, match="'alpha.b' holds non-finite"):
        ParamStore.load(path)


def test_training_state_scalars_may_be_non_finite(tmp_path):
    # The schedulers start from inf ("no best yet") and nan ("no first epoch").
    store = ParamStore({
        **{name: t.data for name, t in random_store().items()},
        "_state.stop_best": np.array([np.inf]),
        "_state.first_total": np.array([np.nan]),
    })
    path = tmp_path / "state.bin"
    store.save(path)
    loaded = ParamStore.load(path)
    assert loaded["_state.stop_best"].data[0] == np.inf
    assert np.isnan(loaded["_state.first_total"].data[0])


def test_grad_slots_match_shapes():
    store = random_store()
    for t in store.tensors():
        assert t.grad is not None
        assert t.grad.shape == t.data.shape
        assert not t.grad.any()


def test_file_layout_is_the_documented_binary_format(tmp_path):
    store = ParamStore({"ab": np.array([[1.0, 2.0]])})
    path = tmp_path / "ckpt.bin"
    store.save(path)
    blob = path.read_bytes()
    assert blob[:6] == MAGIC
    # name length, name, rank, extents, payload
    assert int.from_bytes(blob[6:14], "little") == 2
    assert blob[14:16] == b"ab"
    assert int.from_bytes(blob[16:24], "little") == 2
    assert int.from_bytes(blob[24:32], "little") == 1
    assert int.from_bytes(blob[32:40], "little") == 2
    assert np.frombuffer(blob[40:56], dtype="<f8").tolist() == [1.0, 2.0]
    assert len(blob) == 56
