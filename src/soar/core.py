"""Dense vector math, the brute-force MIPS oracle, and the rank statistic.

Everything downstream (partition assignment, index search, quality metrics)
is validated against the operations in this module, so the implementations
favor deterministic arithmetic over speed: accumulation happens in float64
and emitted scores are rounded to float32 so that comparisons behave the
same everywhere. Ties are broken by ascending datapoint id throughout.
"""

import os
import threading
from typing import NamedTuple

import numpy as np

__all__ = [
    "Dataset",
    "Neighbor",
    "batch_inner_products",
    "top_positions",
    "brute_force_mips",
    "rank",
    "ordered_map",
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


class Neighbor(NamedTuple):
    """A search result: datapoint id plus its (float32-rounded) score.

    Immutable; equal to, hashed and unpacked as the tuple (id, score)."""

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


# Below this many entries, in all or kept, a lexsort is cheaper than
# selecting first or sorting by score alone and checking for ties. Timed
# alone on a fresh array per call they break even at about 200 entries
# (2-vCPU host), but inside `search` the selection cost 18-30 us more per
# query over the shell index's 250 centers, and the single-key sort 5 us
# more on the 4 centers kept of fine-p4-none's 400.
_SELECT_FROM = 300


def top_positions(scores: np.ndarray, count: int, tiebreak: np.ndarray | None = None) -> np.ndarray:
    """The first `count` positions of np.lexsort((tiebreak, -scores)): score
    descending, ties by ascending tiebreak (the position when None).

    Selects instead of sorting: every entry scoring at least the count-th
    best is kept (np.partition, ties at the cut included), so the answer is
    the full sort's prefix. From _SELECT_FROM kept entries on they are
    sorted by score alone (np.argsort), which is the lexsort's order when
    the sorted scores are strictly increasing; fewer, or an exact tie (+0.0
    against -0.0 included), take the lexsort. Below _SELECT_FROM entries,
    or when a NaN (which np.partition puts last) leaves fewer than `count`
    kept, it lexsorts them all. `search` never passes a NaN. count >= 1.
    """
    size = scores.shape[0]
    kept = None
    if count < size and size >= _SELECT_FROM:
        kept = np.flatnonzero(scores >= np.partition(scores, size - count)[size - count])
    if kept is None or kept.shape[0] < count:
        return np.lexsort((np.arange(size) if tiebreak is None else tiebreak, -scores))[:count]
    neg = -scores[kept]
    if kept.shape[0] >= _SELECT_FROM:
        order = np.argsort(neg)
        ranked = neg[order]
        if (ranked[1:] > ranked[:-1]).all():
            return kept[order[:count]]
    return kept[np.lexsort((kept if tiebreak is None else tiebreak[kept], neg))[:count]]


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


# Most threads ordered_map runs on. Every running unit holds its own working
# set, and each thread's malloc arena keeps its high-water mark after the
# thread exits, so peak memory grows by about one unit's working set per
# thread: with the cap lifted, perfbench's policy-eval (three 20k x 64 CLI
# builds) read a peak RSS of 102 MB on 1 thread, 105 on 2, 113 on 4 and 211
# on 32. Two threads keep that rise small on every host.
_MAX_WORKERS = 2


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return os.cpu_count() or 1
    return len(affinity(0))


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items], in input order, run on P = min(len(items),
    CPUs, _MAX_WORKERS) threads.

    The calling thread is one of the P workers: at most P - 1 threads are
    started, and all are joined before this returns. Workers take the next
    item in input order. Once a unit raises, no unit starts; the first
    exception is raised here after the running units finish. It pays only
    for units that spend their time in numpy calls that release the GIL,
    and each unit must write nothing another unit reads.
    """
    items = list(items)
    workers = min(len(items), _cpu_count(), _MAX_WORKERS)
    if workers <= 1:
        return [fn(x) for x in items]
    results = [None] * len(items)
    errors: list[BaseException] = []
    lock = threading.Lock()
    positions = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if errors else next(positions, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised in the calling thread
                with lock:
                    errors.append(exc)
                return

    started = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            started.append(thread)
        work()
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results
