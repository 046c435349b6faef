"""Named, ordered parameter collections, each built once from its arrays,
and their binary checkpoint format.

Checkpoint layout: the 6-byte magic ``VISTA1``, then one record per entry in
store order: name length (u64 LE), UTF-8 name, rank (u64 LE), extents
(u64 LE each), then the values as little-endian IEEE-754 float64. Round-trips
are bit-exact. Loading rejects non-finite values, except in the ``_state.``
scalars of a training-state file.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .data import atomic_write
from .errors import CheckpointError
from .tensor import Parameter

MAGIC = b"VISTA1"


class ParamStore:
    """Ordered map of name -> trainable ``Parameter``, built once from an
    ordered mapping of name -> array, whose arrays it copies.

    All values live in one contiguous float64 vector (``values``) and all
    gradients in another (``grads``), in store order; each parameter's
    ``data`` and ``grad`` are views into them. Write values in place
    (``p.data[...] = x``): rebinding ``p.data`` detaches it from the store.
    """

    def __init__(self, arrays):
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        self._values = np.concatenate([a.reshape(-1) for a in arrays.values()] or [np.empty(0)])
        self._grads = np.zeros_like(self._values)
        self._entries = {name: Parameter(a, requires_grad=True) for name, a in arrays.items()}
        values, grads = self.split(self._values), self.split(self._grads)
        for name, t in self._entries.items():  # point each entry at its slices
            t.data, t.grad = values[name], grads[name]

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def grads(self) -> np.ndarray:
        return self._grads

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
            blob += struct.pack("<Q", t.data.ndim)
            for extent in t.data.shape:
                blob += struct.pack("<Q", extent)
            blob += t.data.astype("<f8").tobytes()
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
            raw = take(name_len)
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = off - name_len + exc.start
                raise CheckpointError(f"{path}: entry name is not UTF-8 at byte {where}") from None
            (rank,) = struct.unpack("<Q", take(8))
            shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(rank))
            try:  # Python ints: numpy's int64 product wraps, (2**62, 4) to 0
                values = np.frombuffer(take(math.prod(shape) * 8), dtype="<f8").reshape(shape)
            except ValueError:  # an empty entry with an extent beyond int64
                raise CheckpointError(f"{path}: entry {name!r} has extents {shape}") from None
            if name in entries:
                raise CheckpointError(f"{path}: duplicate entry {name!r}")
            # Training-state scalars use inf and nan for "no best value yet".
            if not name.startswith("_state.") and not np.isfinite(values).all():
                raise CheckpointError(f"{path}: entry {name!r} holds non-finite values")
            entries[name] = values
        return cls(entries)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
