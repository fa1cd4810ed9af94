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

``slices`` cuts every count into batches: replicates into ``chunks``,
large draws into ``row_blocks`` (which consume a stream exactly as one
whole draw does), and the pb search's restarts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .core import _check_int

# Replicates are always drawn in chunks of this size so that serial and
# parallel runs consume identical stream segments.
CHUNK_SIZE = 8192

# Elements per row block of a large draw or gather: outcomes, sort-path
# uniforms, the pattern-index gather, and bootstrap indices (drawn only
# by bootstrap_ci, kept for the benchmark).  A float64 block is 0.5 MB.
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


def slices(total: int, step: int) -> list[slice]:
    """Cut range(total) into consecutive slices of `step` (the last one ragged)."""
    _check_int("total", total, 0)
    return [slice(lo, min(lo + step, total)) for lo in range(0, total, step)]


def chunks(total: int) -> list[slice]:
    """The CHUNK_SIZE slices of `total` replicates."""
    return slices(total, CHUNK_SIZE)


def row_blocks(n_rows: int, width: int) -> list[slice]:
    """The slices of max(1, BLOCK_ELEMENTS // width) of n_rows rows of
    `width` elements.  Every sampler that draws in these blocks consumes
    its stream exactly as one (n_rows, width) draw does, so no byte
    depends on the block size."""
    return slices(n_rows, max(1, BLOCK_ELEMENTS // max(1, width)))
