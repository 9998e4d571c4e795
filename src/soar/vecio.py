"""fvecs/ivecs file IO and the ground-truth cache.

Both formats store one vector per record: a little-endian uint32 dimension
followed by that many little-endian float32 (fvecs) or int32 (ivecs)
values. Every record in a file must have the same dimension.

Exact ground truth is expensive, so it is cached beside the dataset as an
ivecs file keyed by the dataset hash, the queries hash, and k. A cache file
is used only when it parses and holds one row of k ids per query; otherwise
the truth is recomputed and the file rewritten. Every file is written
atomically (temp file, then os.replace), so an interrupted write never
leaves a partial file behind.
"""

import hashlib
from pathlib import Path

import numpy as np

from .core import Dataset, _all_finite
from .evaluation import ground_truth_ids
from .index import write_atomic

__all__ = [
    "DataFormatError",
    "read_fvecs",
    "write_fvecs",
    "read_ivecs",
    "write_ivecs",
    "file_digest",
    "ground_truth_cache_path",
    "load_or_compute_ground_truth",
]


class DataFormatError(ValueError):
    """Raised for malformed or inconsistent vector files."""


def _read_vecs(path, payload_dtype: str) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise DataFormatError(f"{path}: no such file") from exc
    if len(raw) == 0:
        raise DataFormatError(f"{path}: empty file")
    if len(raw) < 4:
        raise DataFormatError(f"{path}: too short for a record header")
    d = int(np.frombuffer(raw, dtype="<u4", count=1)[0])
    if d < 1:
        raise DataFormatError(f"{path}: record dimension {d} is not positive")
    record = 4 * (d + 1)
    if len(raw) % record != 0:
        raise DataFormatError(f"{path}: size {len(raw)} is not a multiple of record size {record}")
    table = np.frombuffer(raw, dtype="<u4").reshape(-1, d + 1)
    if not np.all(table[:, 0] == d):
        raise DataFormatError(f"{path}: inconsistent record dimensions")
    return table[:, 1:].copy().view(payload_dtype)


def _write_vecs(path, arr: np.ndarray, payload_dtype: str) -> None:
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataFormatError(f"need a non-empty 2-D array, got shape {arr.shape}")
    n, d = arr.shape
    table = np.empty((n, d + 1), dtype="<u4")
    table[:, 0] = d
    table[:, 1:] = np.ascontiguousarray(arr, dtype=payload_dtype).view("<u4")
    write_atomic(path, table.tobytes())


def read_fvecs(path) -> np.ndarray:
    """Load an fvecs file as (n, d) float32. Values must be finite."""
    data = _read_vecs(path, "<f4")
    if not _all_finite(data):
        raise DataFormatError(f"{path}: non-finite values")
    return data


def write_fvecs(path, arr) -> None:
    write = np.asarray(arr, dtype="<f4")
    if not _all_finite(write):
        raise DataFormatError("refusing to write non-finite values")
    _write_vecs(path, write, "<f4")


def read_ivecs(path) -> np.ndarray:
    """Load an ivecs file as (n, d) int32."""
    return _read_vecs(path, "<i4")


def write_ivecs(path, arr) -> None:
    _write_vecs(path, np.asarray(arr, dtype="<i4"), "<i4")


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ground_truth_cache_path(dataset_path, queries_path, k: int) -> Path:
    dataset_path = Path(dataset_path)
    key = f"{file_digest(dataset_path)}:{file_digest(queries_path)}:{k}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return dataset_path.parent / f"{dataset_path.stem}.gt_{digest}_k{k}.ivecs"


def load_or_compute_ground_truth(dataset_path, queries_path, k: int) -> np.ndarray:
    """Exact top-k ids for every query, cached beside the dataset."""
    cache = ground_truth_cache_path(dataset_path, queries_path, k)
    Q = Dataset(read_fvecs(queries_path))
    if cache.exists():
        try:
            ids = read_ivecs(cache)
        except DataFormatError:
            ids = None  # unreadable: recompute and overwrite it
        if ids is not None and ids.shape == (Q.n, k):
            return ids.astype(np.int64)
    X = Dataset(read_fvecs(dataset_path))
    ids = ground_truth_ids(Q, X, k)
    write_ivecs(cache, ids)
    return ids
