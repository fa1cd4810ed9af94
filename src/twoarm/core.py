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
* A caller's arrays and real scalars pass through _frozen: a read-only
  copy, or a ValueError that starts with the field's name.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def _frozen(name: str, values, ndim: int, dtype=float) -> np.ndarray:
    """A read-only dtype copy of values with ndim axes, or a ValueError that
    starts with name: for ragged input, a type other than integer or float
    (strings, None, bools, a bool entry among numbers), another rank, or a
    non-finite or non-integral entry."""
    rank = f"{ndim}-D" if ndim else "a scalar"
    try:
        raw = np.asarray(values)
    except ValueError:
        raise ValueError(f"{name} must be {rank}, got a ragged sequence") from None
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numeric, got dtype {raw.dtype}")
    # numpy casts the bools of a mixed sequence to numbers; an array is
    # already whole-typed, so only outside sequences pay for the scan
    if not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat
    ):
        raise ValueError(f"{name} must be numeric, got a bool entry")
    if raw.ndim != ndim:
        raise ValueError(f"{name} must be {rank}")
    if not (finite := np.isfinite(raw)).all():
        raise ValueError(f"{name} must be finite, got {raw[~finite][0]}")
    arr = raw.astype(dtype)
    if arr.dtype.kind in "iu" and not np.array_equal(arr, raw):
        raise ValueError(f"{name} must be integers, got {raw[arr != raw][0]}")
    arr.setflags(write=False)
    return arr


def _check_type(name: str, value, cls: type) -> None:
    """ValueError naming value unless it is an instance of cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


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
        arr = _frozen("covariates", self.values, 2)
        if arr.shape[0] < 4 or arr.shape[0] % 2:
            raise ValueError(
                f"subject count must be even and >= 4, got {arr.shape[0]}"
            )
        if arr.shape[1] < 1:
            raise ValueError("need at least one covariate column")
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
        arr = _frozen("allocation signs", self.signs, 1, np.int8)
        if arr.size == 0:
            raise ValueError("allocation signs must be non-empty")
        if arr.shape[0] % 2:
            raise ValueError(f"allocation signs must have even length, got {arr.size}")
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
        arr = _frozen("block_of", self.block_of, 1, np.int64)
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
        return cls(np.zeros(_check_int("n_subjects", n_subjects, 2), dtype=np.int64))

    @classmethod
    def from_pairs(cls, pairs) -> "Blocking":
        """The size-2 blocking whose block b is row b of pairs, an (n, 2)
        array or sequence that holds each subject index 0..2n-1 once."""
        pairs = _frozen("pair index", pairs, 2, np.int64)
        if pairs.shape[1] != 2:
            raise ValueError(f"a pair must be two indices, got {pairs.shape[1]}")
        n = pairs.size
        if (outside := pairs[(pairs < 0) | (pairs >= n)]).size:
            raise ValueError(f"pair index {outside[0]} out of range for 2n={n}")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ValueError("a pair cannot repeat an index")
        if (reused := np.bincount(pairs.ravel(), minlength=n) > 1).any():
            raise ValueError(f"subject {reused.argmax()} appears in two pairs")
        # subject s sits at flat position argsort[s], in pair argsort[s] // 2
        return cls(np.argsort(pairs.ravel()) // 2)

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
