"""The k-means core against a frozen reference, and build and search determinism.

The reference functions below are the original, unoptimized k-means core,
kept verbatim: the library's faster inner loops (bincount center sums,
cached norms, in-place distances, buffered seeding) must return the same
centers bit for bit, so every index byte stays the same.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soar
import soar.pq
import soar.vq
from soar.core import Dataset
from soar.index import build, serialize
from soar.vq import _CHUNK, _repair_duplicate_centers, lloyd_kmeans

# ---------------------------------------------------------------------------
# reference k-means core, verbatim


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x||^2 - 2<x,c> + ||c||^2; tiny negatives from cancellation clip to 0
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * (points @ centers.T)
        + (centers * centers).sum(axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _nearest_center(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chunked argmin over centers. Returns (assignment, squared distance)."""
    n = points.shape[0]
    assign = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        d2 = _sq_dists(points[lo:hi], centers)
        idx = d2.argmin(axis=1)  # argmin takes the lowest index on ties
        assign[lo:hi] = idx
        dist[lo:hi] = d2[np.arange(hi - lo), idx]
    return assign, dist


def _kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, c):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all mass already covered (duplicate-heavy data)
        centers[j] = points[idx]
        np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1), out=d2)
    return centers


def reference_lloyd_kmeans(
    points: np.ndarray, c: int, max_iters: int = 25, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Lloyd's algorithm on a raw float array. Returns float32 centers.

    k-means++ seeding, empty clusters re-seeded from the point farthest from
    its current center, stop when assignments no longer change.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"c={c} outside [1, {n}]")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if rng is None:
        rng = np.random.default_rng()
    centers = _kmeanspp_init(points, c, rng)
    prev = None
    assign, dist = _nearest_center(points, centers)
    for _ in range(max_iters):
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, points)
        counts = np.bincount(assign, minlength=c).astype(np.float64)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            # claim the points that current centers explain worst
            far = np.lexsort((np.arange(n), -dist))
            for slot, idx in zip(empty, far[: empty.size]):
                centers[slot] = points[idx]
        assign, dist = _nearest_center(points, centers)
    return _repair_duplicate_centers(centers, points, assign, dist)


# ---------------------------------------------------------------------------
# lloyd_kmeans == reference


def _assert_same_centers(points, c, seed, max_iters=25):
    got = lloyd_kmeans(points, c, max_iters=max_iters, rng=np.random.default_rng(seed))
    want = reference_lloyd_kmeans(points, c, max_iters=max_iters, rng=np.random.default_rng(seed))
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got, want)


def _mixture(n, d, seed, clusters=8):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((clusters, d)) * 3.0
    return means[rng.integers(clusters, size=n)] + rng.standard_normal((n, d))


@pytest.mark.parametrize("d", [1, 2, 3, 64])
@pytest.mark.parametrize("c", [1, 16, "n/100"])
def test_centers_match_reference(d, c):
    n = 2400
    c = n // 100 if c == "n/100" else c
    _assert_same_centers(_mixture(n, d, seed=10 * d + 1), c, seed=d)


def test_centers_match_reference_across_chunks():
    points = _mixture(2 * _CHUNK + 321, 5, seed=3)
    _assert_same_centers(points, 40, seed=9)


def test_centers_match_reference_on_float32_input():
    points = _mixture(1500, 12, seed=4).astype(np.float32)
    _assert_same_centers(points, 20, seed=2)


def test_centers_match_reference_with_empty_cluster_reseeding(monkeypatch):
    # 9 distinct rows and 14 centers: once seeding has covered every distinct
    # row it picks duplicates, whose clusters come out empty and are re-seeded
    rng = np.random.default_rng(12)
    distinct = rng.standard_normal((9, 3))
    points = distinct[rng.integers(9, size=600)]
    counts_seen = []
    real_bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        out = real_bincount(x, weights=weights, minlength=minlength)
        if weights is None and minlength == 14:
            counts_seen.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(np, "bincount", spy)
        reference_lloyd_kmeans(points, 14, rng=np.random.default_rng(5))
    assert any((counts == 0).any() for counts in counts_seen)
    _assert_same_centers(points, 14, seed=5)


def test_centers_match_reference_on_duplicate_heavy_data():
    rng = np.random.default_rng(13)
    distinct = rng.standard_normal((60, 8))
    points = np.concatenate(
        [distinct[rng.integers(60, size=1800)], rng.standard_normal((200, 8))]
    )
    rng.shuffle(points)
    _assert_same_centers(points, 16, seed=6)
    _assert_same_centers(points, 70, seed=7)


def test_centers_match_reference_on_strided_column_slice():
    # train_pq hands each subspace to lloyd_kmeans as a column view
    residuals = _mixture(3000, 16, seed=14)
    for j in range(0, 16, 2):
        sub = residuals[:, j : j + 2]
        assert not sub.flags.c_contiguous
        _assert_same_centers(sub, 16, seed=j)


def test_kmeanspp_seeding_matches_reference():
    points = _mixture(3000, 7, seed=15)
    got = soar.vq._kmeanspp_init(points, 30, np.random.default_rng(1))
    want = _kmeanspp_init(points, 30, np.random.default_rng(1))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n, d", [(4097, 1), (2 * 4096 + 1, 3), (4096 + 700, 64), (4095, 9)])
def test_kmeanspp_seeding_matches_reference_across_blocks(n, d):
    # seeding updates its distances 4,096 rows at a time; a last block of
    # one row is reduced as a 1-D row
    points = _mixture(n, d, seed=n + d) * np.random.default_rng(d).uniform(1e-3, 1e3, (n, 1))
    got = soar.vq._kmeanspp_init(points, 12, np.random.default_rng(2))
    want = _kmeanspp_init(points, 12, np.random.default_rng(2))
    assert np.array_equal(got, want)


def test_center_sums_match_add_at():
    # float64 sums, before the float32 cast that could hide an ulp
    rng = np.random.default_rng(19)
    for n, d, c in [(5000, 1, 3), (5000, 2, 16), (3000, 64, 30), (10, 3, 12)]:
        points = rng.standard_normal((n, d)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        assign = rng.integers(c, size=n)
        want = np.zeros((c, d))
        np.add.at(want, assign, points)
        assert np.array_equal(soar.vq._center_sums(points, assign, c), want)


def test_nearest_center_matches_reference():
    points = _mixture(_CHUNK + 500, 9, seed=16)
    centers = _mixture(33, 9, seed=17)
    got = soar.vq._nearest_center(points, centers)
    want = _nearest_center(points, centers)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# whole-index bytes


def _reference_build(monkeypatch, X, **kwargs):
    """build() with the reference k-means core patched in everywhere."""
    with monkeypatch.context() as m:
        m.setattr(soar.vq, "lloyd_kmeans", reference_lloyd_kmeans)
        m.setattr(soar.pq, "lloyd_kmeans", reference_lloyd_kmeans)
        m.setattr(soar.vq, "_nearest_center", lambda p, c, pnorm=None: _nearest_center(p, c))
        m.setattr(soar.vq, "_sq_dists", lambda p, c, pnorm, cnorm: _sq_dists(p, c))
        return build(X, **kwargs)


@pytest.mark.parametrize("policy", ["none", "naive", "soar"])
def test_serialized_index_matches_reference(monkeypatch, policy):
    X = Dataset(_mixture(3000, 20, seed=18).astype(np.float32))
    kwargs = dict(c=30, policy=policy, s=2, seed=4, lam=1.0)
    got = serialize(build(X, **kwargs))
    assert got == serialize(build(X, **kwargs))
    assert got == serialize(_reference_build(monkeypatch, X, **kwargs))


# ---------------------------------------------------------------------------
# Neither the BLAS thread count nor the CPU count reaches the bytes, the search
# results or the evaluation

_HASH_BUILD = """
import dataclasses
import hashlib
import numpy as np
from soar.core import Dataset
from soar.evaluation import diagnostics, kmr_curve
from soar.index import SearchParams, build, search, serialize
rng = np.random.default_rng(21)
means = rng.standard_normal((16, 48)) * 2.0
X = means[rng.integers(16, size=12000)] + rng.standard_normal((12000, 48))
index = build(Dataset(X.astype(np.float32)), c=40, policy="soar", s=2, seed=3, lam=1.0)
print(hashlib.sha256(serialize(index)).hexdigest())
Q = means[rng.integers(16, size=60)] + rng.standard_normal((60, 48))
# the unspilled index skips search's first-entry pass
unspilled = build(Dataset(X.astype(np.float32)), c=40, policy="none", s=2, seed=3)
answers = [
    (r.datapoints_scanned, [(nb.id, nb.score) for nb in r.neighbors])
    for idx in (index, unspilled)
    for q in Q
    for r in (search(idx, q, SearchParams(k=10, probes=p)) for p in (1, 4, 16))
]
print(hashlib.sha256(repr(answers).encode()).hexdigest())
Qd = Dataset(Q.astype(np.float32))
curve = kmr_curve(Qd, index, 10)
diag = diagnostics(Qd, index, 10)
evaluation = [curve.datapoints, curve.recall]
evaluation += [getattr(diag, f.name) for f in dataclasses.fields(diag) if f.name != "summary"]
evaluation += [getattr(diag.summary, f.name) for f in dataclasses.fields(diag.summary)]
print(hashlib.sha256(
    repr([v.tobytes() if isinstance(v, np.ndarray) else v for v in evaluation]).encode()
).hexdigest())
"""


def _hashes_with_threads(threads: int, cpu: int | None = None) -> list[str]:
    """(index bytes, search results, evaluation outputs) hashes from a fresh
    interpreter, pinned to the one CPU `cpu` when it is given."""
    src = str(Path(soar.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = _HASH_BUILD
    if cpu is not None:
        script = f"import os\nos.sched_setaffinity(0, {{{cpu}}})\n" + script
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


@pytest.fixture(scope="module")
def thread_hashes():
    return _hashes_with_threads(1), _hashes_with_threads(2)


def test_index_bytes_do_not_depend_on_blas_threads(thread_hashes):
    one, two = thread_hashes
    assert len(one[0]) == 64
    assert one[0] == two[0]


def test_search_does_not_depend_on_blas_threads(thread_hashes):
    one, two = thread_hashes
    assert len(one[1]) == 64
    assert one[1] == two[1]


def test_evaluation_does_not_depend_on_blas_threads(thread_hashes):
    one, two = thread_hashes
    assert len(one[2]) == 64
    assert one[2] == two[2]


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_do_not_depend_on_cpu_count(thread_hashes, threads):
    """build trains and encodes the PQ subspaces on up to two threads; a
    process pinned to one CPU runs them all on the calling thread."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available on this platform")
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("only one CPU is available, so pinned and unpinned runs are the same")
    pinned = _hashes_with_threads(threads, cpu=min(cpus))
    assert len(pinned) == 3
    assert pinned == thread_hashes[threads - 1]
