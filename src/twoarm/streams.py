"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a generator derived
from a master seed plus a structured path (cell id, role, chunk index).
Streams therefore do not depend on execution order, worker count, or
which cells run in the same process, which is what makes a parallel
grid reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .core import _check_int

# Replicates are always drawn in chunks of this size so that serial and
# parallel runs consume identical stream segments.
CHUNK_SIZE = 8192


def _encode(part: int | str) -> tuple[int, ...]:
    """Map one path component to SeedSequence-compatible words."""
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path integers must be >= 0, got {part}")
        return (int(part),)
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    # 8 words of 32 bits; plenty of separation between named roles.
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4))


def substream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator keyed by (master_seed, *path).

    Distinct paths yield statistically independent PCG64 streams; the
    same (seed, path) always yields the same stream.
    """
    words: list[int] = [_check_int("master_seed", master_seed, 0)]
    for part in path:
        words.extend(_encode(part))
    return np.random.default_rng(np.random.SeedSequence(words))


def chunk_sizes(total: int) -> list[int]:
    """Split `total` replicates into CHUNK_SIZE chunks (last one ragged)."""
    _check_int("total", total, 0)
    full, rest = divmod(total, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])
