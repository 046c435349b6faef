"""Named, ordered parameter collections and their binary checkpoint format.

Checkpoint layout: the 6-byte magic ``VISTA1``, then one record per entry in
store order: name length (u64 LE), UTF-8 name, rank (u64 LE), extents
(u64 LE each), then the values as little-endian IEEE-754 float64. Round-trips
are bit-exact. Loading rejects non-finite values, except in the ``_state.``
scalars of a training-state file.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import atomic_write
from .errors import CheckpointError
from .tensor import Parameter

MAGIC = b"VISTA1"


class ParamStore:
    """Ordered map of name -> trainable ``Parameter``.

    All values live in one contiguous float64 vector (``values``) and all
    gradients in another (``grads``), in store order; each parameter's
    ``data`` and ``grad`` are views into them. Write values in place
    (``p.data[...] = x``): rebinding ``p.data`` detaches it from the store.
    """

    def __init__(self):
        self._entries: dict[str, Parameter] = {}
        self._size = 0
        self._value_buf = np.empty(0)
        self._grad_buf = np.empty(0)

    @property
    def values(self) -> np.ndarray:
        return self._value_buf[: self._size]

    @property
    def grads(self) -> np.ndarray:
        return self._grad_buf[: self._size]

    def add(self, name: str, array) -> Parameter:
        """Copy ``array`` into the buffer as a new parameter with a zero gradient."""
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        arr = np.asarray(array, dtype=np.float64)
        start, stop = self._size, self._size + arr.size
        if stop > len(self._value_buf):
            self._reallocate(max(stop, 2 * len(self._value_buf)))
        t = Parameter(self._value_buf[start:stop].reshape(arr.shape), requires_grad=True)
        t.data[...] = arr
        t.grad = self._grad_buf[start:stop].reshape(arr.shape)
        t.grad.fill(0.0)
        self._size = stop
        self._entries[name] = t
        return t

    def _reallocate(self, capacity: int):
        """Move both buffers to ``capacity`` slots and re-point every view.
        The slots past the last parameter stay unwritten, so their pages are
        never touched."""
        values, grads = np.empty(capacity), np.empty(capacity)
        values[: self._size] = self.values
        grads[: self._size] = self.grads
        value_views, grad_views = self.split(values), self.split(grads)
        for name, t in self._entries.items():
            t.data, t.grad = value_views[name], grad_views[name]
        self._value_buf, self._grad_buf = values, grads

    def split(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-name views of ``flat``, a vector laid out like ``values``."""
        views, start = {}, 0
        for name, t in self._entries.items():
            stop = start + t.data.size
            views[name] = flat[start:stop].reshape(t.data.shape)
            start = stop
        return views

    def __getitem__(self, name: str) -> Parameter:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self):
        return list(self._entries.keys())

    def items(self):
        return self._entries.items()

    def tensors(self):
        return list(self._entries.values())

    def zero_grad(self):
        self.grads.fill(0.0)

    # -- persistence -----------------------------------------------------

    def save(self, path):
        blob = bytearray(MAGIC)
        for name, t in self._entries.items():
            raw = name.encode("utf-8")
            blob += struct.pack("<Q", len(raw))
            blob += raw
            arr = np.ascontiguousarray(t.data, dtype=np.float64)
            blob += struct.pack("<Q", arr.ndim)
            for extent in arr.shape:
                blob += struct.pack("<Q", extent)
            blob += arr.astype("<f8").tobytes()
        atomic_write(path, blob)

    @classmethod
    def load(cls, path) -> "ParamStore":
        with open(path, "rb") as f:
            blob = f.read()
        if blob[: len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: bad magic, expected {MAGIC!r}")
        entries: dict[str, np.ndarray] = {}
        off = len(MAGIC)

        def take(n):
            nonlocal off
            if off + n > len(blob):
                raise CheckpointError(f"{path}: truncated checkpoint at byte {off}")
            chunk = blob[off : off + n]
            off += n
            return chunk

        while off < len(blob):
            (name_len,) = struct.unpack("<Q", take(8))
            name = take(name_len).decode("utf-8")
            (rank,) = struct.unpack("<Q", take(8))
            shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(rank))
            count = int(np.prod(shape)) if shape else 1
            values = np.frombuffer(take(count * 8), dtype="<f8").reshape(shape)
            if name in entries:
                raise CheckpointError(f"{path}: duplicate entry {name!r}")
            # Training-state scalars use inf and nan for "no best value yet".
            if not name.startswith("_state.") and not np.isfinite(values).all():
                raise CheckpointError(f"{path}: entry {name!r} holds non-finite values")
            entries[name] = values  # add() copies it into the store's buffer
        store = cls()
        store._reallocate(sum(arr.size for arr in entries.values()))  # one allocation
        for name, arr in entries.items():
            store.add(name, arr)
        return store


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
