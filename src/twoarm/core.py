"""Domain types for two-arm experiments.

Conventions used throughout the package:

* A sample has 2n subjects indexed 0..2n-1.  An allocation is a vector
  w in {-1, +1}^(2n) with sum(w) = 0; w_i = +1 means subject i is
  treated, -1 means control.
* Each subject carries two potential outcomes (y_T, y_C) with means
  (mu_T, mu_C) and per-subject noise variance total
  rho_i = Var(y_T,i) + Var(y_C,i).
* The estimand is the average treatment effect over the sample and the
  estimator is the simple difference in arm means, whose error is
  w'(y_T + y_C) / 2n.  The potential-outcome type and the estimator
  algebra written out term by term live in twoarm.criteria, next to
  the oracles that use them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def _frozen(values, dtype=float) -> np.ndarray:
    """Copy to an immutable ndarray so instances stay value-like."""
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _frozen_ints(name: str, values, dtype) -> np.ndarray:
    """_frozen for integer entries; ValueError naming them if one is not."""
    raw = np.asarray(values)
    arr = _frozen(raw, dtype)
    if not np.array_equal(arr, raw):
        raise ValueError(f"{name} must be integers, got {raw[arr != raw][0]}")
    return arr


def _check_int(name: str, value, minimum: int) -> int:
    """value as an int if a non-bool integer >= minimum; else ValueError naming it."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class CovariateMatrix:
    """Fixed covariates, one row per subject.

    The row count must be even (two arms of equal size) and at least 4.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.values)
        if arr.ndim != 2:
            raise ValueError(f"covariates must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 4 or arr.shape[0] % 2:
            raise ValueError(
                f"subject count must be even and >= 4, got {arr.shape[0]}"
            )
        if arr.shape[1] < 1:
            raise ValueError("need at least one covariate column")
        if not np.isfinite(arr).all():
            raise ValueError("covariates must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.values.shape[1]

    @property
    def n_pairs(self) -> int:
        return self.values.shape[0] // 2


@dataclass(frozen=True, eq=False)
class Allocation:
    """A balanced +1/-1 assignment vector."""

    signs: np.ndarray

    def __post_init__(self):
        arr = _frozen_ints("allocation signs", self.signs, np.int8)
        if arr.size == 0:
            raise ValueError("allocation signs must be non-empty")
        if arr.ndim != 1 or arr.shape[0] % 2:
            raise ValueError("allocation must be a 1-D vector of even length")
        if not np.isin(arr, (-1, 1)).all():
            raise ValueError("allocation entries must be -1 or +1")
        if int(arr.sum()) != 0:
            raise ValueError(f"allocation must be balanced, sum={int(arr.sum())}")
        object.__setattr__(self, "signs", arr)

    @property
    def n_subjects(self) -> int:
        return self.signs.shape[0]


@dataclass(frozen=True, eq=False)
class Blocking:
    """A partition of subjects into B blocks of equal even size n_B."""

    block_of: np.ndarray

    def __post_init__(self):
        arr = _frozen_ints("block_of", self.block_of, np.int64)
        if arr.ndim != 1:
            raise ValueError("block_of must be 1-D")
        if arr.size == 0:
            raise ValueError("block_of must be non-empty")
        ids, counts = np.unique(arr, return_counts=True)
        if not np.array_equal(ids, np.arange(ids.shape[0])):
            raise ValueError("block ids must be 0..B-1 with no gaps")
        if counts.min() != counts.max():
            raise ValueError("all blocks must have the same size")
        size = int(counts[0])
        if size % 2:
            raise ValueError(f"block size must be even, got {size}")
        object.__setattr__(self, "block_of", arr)

    @classmethod
    def single(cls, n_subjects: int) -> "Blocking":
        return cls(np.zeros(n_subjects, dtype=np.int64))

    @classmethod
    def from_pairs(cls, pairs) -> "Blocking":
        """Build a size-2 blocking from an iterable of index pairs."""
        pairs = [tuple(p) if np.iterable(p) else (p,) for p in pairs]
        for p in pairs:
            if len(p) != 2:
                raise ValueError(f"a pair must be two indices, got {p}")
        pairs = [tuple(_check_int("pair index", i, 0) for i in p) for p in pairs]
        n = 2 * len(pairs)
        block_of = np.full(n, -1, dtype=np.int64)
        for b, (i, j) in enumerate(pairs):
            if i == j:
                raise ValueError("a pair cannot repeat an index")
            for k in (i, j):
                if not 0 <= k < n:
                    raise ValueError(f"pair index {k} out of range for 2n={n}")
                if block_of[k] >= 0:
                    raise ValueError(f"subject {k} appears in two pairs")
                block_of[k] = b
        return cls(block_of)

    @property
    def n_subjects(self) -> int:
        return self.block_of.shape[0]

    @property
    def n_blocks(self) -> int:
        return int(self.block_of.max()) + 1

    @property
    def block_size(self) -> int:
        return self.n_subjects // self.n_blocks

    @property
    def is_pairing(self) -> bool:
        return self.block_size == 2

    def blocks(self) -> np.ndarray:
        """Members as one (B, n_B) array; row b holds block b's, ascending."""
        return np.argsort(self.block_of, kind="stable").reshape(self.n_blocks, -1)

    def pairs(self) -> list[tuple[int, int]]:
        """Canonical pair list (lo, hi), sorted by the low index."""
        if not self.is_pairing:
            raise ValueError("pairs() requires block size 2")
        return sorted(map(tuple, self.blocks().tolist()))
