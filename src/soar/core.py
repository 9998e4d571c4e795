"""Dense vector math, the brute-force MIPS oracle, and the rank statistic.

Everything downstream (partition assignment, index search, quality metrics)
is validated against the operations in this module, so the implementations
favor deterministic arithmetic over speed: accumulation happens in float64
and emitted scores are rounded to float32 so that comparisons behave the
same everywhere. Ties are broken by ascending datapoint id throughout.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "Neighbor",
    "batch_inner_products",
    "top_positions",
    "brute_force_mips",
    "rank",
]


class Dataset:
    """Immutable n-by-d float32 matrix of datapoints (also used for queries).

    Row i is the datapoint with id i. Every value must be finite.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float32, copy=True)
        arr.setflags(write=False)
        self.data = _checked_rows(arr)

    @classmethod
    def _view(cls, arr: np.ndarray) -> "Dataset":
        """A Dataset over arr itself, without the constructor's copy: for
        arrays nobody can write to, such as a view of a read-only file
        mapping. Same shape and finite checks as the constructor."""
        if arr.dtype != np.float32 or arr.flags.writeable or not arr.flags.c_contiguous:
            raise TypeError("Dataset._view needs a read-only, C-contiguous float32 array")
        dataset = cls.__new__(cls)
        dataset.data = _checked_rows(arr)
        return dataset

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, d={self.d})"


def _checked_rows(arr: np.ndarray) -> np.ndarray:
    """arr, once it is a non-empty 2-D array of finite values."""
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"need at least one row and one column, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ValueError("dataset contains NaN or Inf values")
    return arr


_FINITE_ROWS = 4096


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value of arr is finite, checked _FINITE_ROWS rows at a
    time so that the temporary mask stays small, not the array's size."""
    rows, block = np.atleast_1d(arr), _FINITE_ROWS
    return all(np.isfinite(rows[i : i + block]).all() for i in range(0, len(rows), block))


@dataclass(frozen=True, order=False)
class Neighbor:
    """A search result: datapoint id plus its (float32-rounded) score."""

    id: int
    score: float


def _as_vector(v, d: int | None = None, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if d is not None and arr.shape[0] != d:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {d}")
    return arr


def batch_inner_products(q, rows: np.ndarray) -> np.ndarray:
    """Scores <q, rows[i]> for every row, float64 accumulation, float32 out."""
    qv = _as_vector(q, name="query")
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != qv.shape[0]:
        raise ValueError(f"rows of shape {mat.shape} do not match query dimension {qv.shape[0]}")
    return (mat @ qv).astype(np.float32)


# Below this many entries a full lexsort is cheaper than the selection's
# fixed cost of about 10 us (2-vCPU host: equal at 300-400 entries).
_SELECT_FROM = 300


def top_positions(scores: np.ndarray, count: int, tiebreak: np.ndarray | None = None) -> np.ndarray:
    """The first `count` positions of np.lexsort((tiebreak, -scores)): score
    descending, ties by ascending tiebreak (the position when None).

    Selects instead of sorting: every entry scoring at least the count-th
    best is kept (np.partition, ties at the cut included) and only those are
    lexsorted, so the answer is the full sort's prefix. Below _SELECT_FROM
    entries it sorts them all. count >= 1.
    """
    size = scores.shape[0]
    if count >= size or size < _SELECT_FROM:
        return np.lexsort((np.arange(size) if tiebreak is None else tiebreak, -scores))[:count]
    kept = np.flatnonzero(scores >= np.partition(scores, size - count)[size - count])
    keys = kept if tiebreak is None else tiebreak[kept]
    return kept[np.lexsort((keys, -scores[kept]))[:count]]


def brute_force_mips(q, X: Dataset, k: int) -> list[Neighbor]:
    """Exact top-k by inner product; the oracle every search path is held to."""
    if not 1 <= k <= X.n:
        raise ValueError(f"k={k} outside [1, {X.n}]")
    scores = batch_inner_products(q, X.data)
    top = top_positions(scores, k)
    return list(map(Neighbor, top.tolist(), scores[top].tolist()))


def rank(q, v, X: Dataset) -> int:
    """Number of datapoints scoring at least <q, v>; the best possible rank is 1.

    Counting uses >= so v itself contributes when it is a member of X.
    """
    qv = _as_vector(q, d=X.d, name="query")
    vv = _as_vector(v, d=X.d, name="v")
    scores = batch_inner_products(qv, X.data)
    sv = np.float32(qv @ vv)
    return int(np.count_nonzero(scores >= sv))

