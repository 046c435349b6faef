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
from .tensor import Tensor

MAGIC = b"VISTA1"


class ParamStore:
    """Ordered map of name -> trainable Tensor, each with a gradient slot."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, array) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
        t.zero_grad()
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
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
        for t in self._entries.values():
            t.zero_grad()

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self._entries.items()}

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
            entries[name] = values.astype(np.float64)
        store = cls()
        for name, arr in entries.items():
            store.add(name, arr)
        return store


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
