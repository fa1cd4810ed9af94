"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a generator derived
from a master seed plus a structured path (cell id, role, chunk index).
Streams therefore do not depend on execution order, worker count, or
which cells run in the same process, which is what makes a parallel
grid reproducible.

The path is handed to ``SeedSequence`` as one ``np.uint32`` array:
each integer (the master seed and every int path part) is split into
32-bit words, least significant first, exactly as numpy splits a Python
int (0 is ``[0]``, 2**32 is ``[0, 1]``), and each string part is its
SHA-256 digest as 8 little-endian words.  That is the same entropy
pool as the list of Python ints, so the state and every spawned child
are the same; the array only spares ``SeedSequence.spawn`` from
converting each child's entropy one Python int at a time.

Large draws are taken in the row blocks of ``row_blocks``, which
consume a stream exactly as one whole draw does.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .core import _check_int

# Replicates are always drawn in chunks of this size so that serial and
# parallel runs consume identical stream segments.
CHUNK_SIZE = 8192

# Elements per row block of a large draw (outcomes, allocation uniforms,
# bootstrap indices): a float64 block takes 0.5 MB.  A block is never
# less than one row, so rows wider than this take one row per block.
BLOCK_ELEMENTS = 1 << 16


def _encode(part: int | str) -> list[int]:
    """Map one path component, a non-bool integer >= 0 or a str, to its
    32-bit entropy words; any other part raises ValueError naming it."""
    if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
        if part < 0:
            raise ValueError(f"stream path integers must be >= 0, got {part}")
        value = int(part)
        words = [value & 0xFFFFFFFF]
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
        return words
    if not isinstance(part, str):
        raise ValueError(f"stream path parts must be str or non-bool integers, got {part!r}")
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    # 8 words of 32 bits; plenty of separation between named roles.
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]


def substream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Return a Generator keyed by (master_seed, *path).

    Distinct paths yield statistically independent PCG64 streams; the
    same (seed, path) always yields the same stream.
    """
    words = _encode(_check_int("master_seed", master_seed, 0))
    for part in path:
        words.extend(_encode(part))
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def chunk_sizes(total: int) -> list[int]:
    """Split `total` replicates into CHUNK_SIZE chunks (last one ragged)."""
    _check_int("total", total, 0)
    full, rest = divmod(total, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])


def row_blocks(n_rows: int, width: int) -> list[slice]:
    """Cut n_rows rows of `width` elements into consecutive row slices of
    at most max(1, BLOCK_ELEMENTS // width) rows (the last one ragged).

    Every sampler that draws in these blocks consumes its stream exactly
    as one (n_rows, width) draw does, so no byte depends on the block
    size."""
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]
