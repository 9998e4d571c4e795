"""Codebook training and partition assignment.

Primary assignment is plain nearest-center Euclidean quantization. Spilled
assignment adds a second partition per point under one of two policies:
"naive" takes the second-nearest center, "soar" penalizes candidates whose
residual is parallel to the primary residual, so the two copies of a point
fail on different queries instead of the same ones. The spill functions
take each point's primary from the distance pass that picks its spill.

All distance work happens in float64 regardless of input dtype; emitted
codebooks are float32. Ties break toward the lower partition id.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, top_positions

__all__ = [
    "Codebook",
    "AssignmentTable",
    "POLICIES",
    "train_kmeans",
    "lloyd_kmeans",
    "assign_primary",
    "soar_loss",
    "assign_spilled_soar",
    "assign_spilled_naive",
]

POLICIES = ("none", "naive", "soar")

_CHUNK = 8192  # rows per block in pairwise-distance work; bounds peak memory
_SEED_ROWS = 4096  # rows per block of k-means++ seeding's distance updates


def _valid_lam(lam) -> bool:
    """Whether lam is the finite lambda >= 0 that soar's loss needs: the rule
    for assignment, soar_loss, Theorem 1's check, index headers and the CLI."""
    return lam is not None and math.isfinite(lam) and lam >= 0


def _check_soar_lam(lam) -> None:
    if not _valid_lam(lam):
        raise ValueError(f"policy 'soar' requires a finite lam >= 0, got {lam!r}")


def _with_centers64(book, arr: np.ndarray) -> None:
    """Set a frozen codebook's centers to a read-only copy of arr and its
    centers64 to their read-only float64 cast, made once for every reader."""
    for name, value in (("centers", arr.copy()), ("centers64", arr.astype(np.float64))):
        value.setflags(write=False)
        object.__setattr__(book, name, value)


@dataclass(frozen=True)
class Codebook:
    """c partition centers, one row each, float32, and their float64 cast."""

    centers: np.ndarray
    centers64: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.centers, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"centers must be a non-empty 2-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("centers contain NaN or Inf")
        _with_centers64(self, arr)

    @property
    def c(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class AssignmentTable:
    """Per-datapoint partition membership.

    primary[i] is always set; spilled[i] exists for the two-partition
    policies and never equals primary[i]. lam is soar's finite lambda >= 0,
    and None under the other policies.
    """

    primary: np.ndarray
    spilled: np.ndarray | None
    policy: str
    lam: float | None = field(default=None)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        prim = np.asarray(self.primary, dtype=np.int32)
        if prim.ndim != 1 or prim.shape[0] < 1:
            raise ValueError("primary must be a non-empty 1-D integer array")
        object.__setattr__(self, "primary", prim)
        if self.policy == "none":
            if self.spilled is not None:
                raise ValueError("policy 'none' cannot carry spilled assignments")
        else:
            if self.spilled is None:
                raise ValueError(f"policy {self.policy!r} requires spilled assignments")
            sp = np.asarray(self.spilled, dtype=np.int32)
            if sp.shape != prim.shape:
                raise ValueError("spilled and primary shapes differ")
            if np.any(sp == prim):
                raise ValueError("spilled assignment equals primary for some datapoint")
            object.__setattr__(self, "spilled", sp)
        if self.policy == "soar":
            _check_soar_lam(self.lam)
        elif self.lam is not None:
            raise ValueError(f"policy {self.policy!r} takes no lam, got {self.lam!r}")

    @property
    def n(self) -> int:
        return self.primary.shape[0]


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    return (rows * rows).sum(axis=1)


def _sq_dists(
    points: np.ndarray, centers: np.ndarray, pnorm: np.ndarray, cnorm: np.ndarray
) -> np.ndarray:
    """||x||^2 - 2<x,c> + ||c||^2 given both squared norms, built in place.

    Float addition commutes, so the in-place order equals the textbook
    expression bit for bit. Tiny negatives from cancellation clip to 0.
    """
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += pnorm[:, None]
    d2 += cnorm[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def _nearest_center(
    points: np.ndarray, centers: np.ndarray, pnorm: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Chunked argmin over centers. Returns (assignment, squared distance).

    pnorm, the squared row norms of points, may be passed in when the same
    points are assigned repeatedly.
    """
    n = points.shape[0]
    if pnorm is None:
        pnorm = _sq_norms(points)
    cnorm = _sq_norms(centers)
    assign = np.empty(n, dtype=np.int64)
    dist = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        d2 = _sq_dists(points[lo:hi], centers, pnorm[lo:hi], cnorm)
        idx = d2.argmin(axis=1)  # argmin takes the lowest index on ties
        assign[lo:hi] = idx
        dist[lo:hi] = d2[np.arange(hi - lo), idx]
    return assign, dist


def _kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n, d = points.shape
    centers = np.empty((c, d), dtype=np.float64)
    rows = min(n, _SEED_ROWS)
    buf = np.empty((rows, d))  # work buffers reused for every block of every seed
    step = np.empty(rows)
    d2 = np.full(n, np.inf)  # min(inf, x) == x, so the first seed needs no special case

    def lower_to(center: np.ndarray) -> None:
        """d2 = min(d2, squared distance to center), _SEED_ROWS rows at a time."""
        for lo in range(0, n, _SEED_ROWS):
            hi = min(lo + _SEED_ROWS, n)
            block, dist = buf[: hi - lo], step[: hi - lo]
            np.subtract(points[lo:hi], center, out=block)
            np.multiply(block, block, out=block)
            block.sum(axis=1, out=dist)
            np.minimum(d2[lo:hi], dist, out=d2[lo:hi])

    centers[0] = points[int(rng.integers(n))]
    lower_to(centers[0])
    for j in range(1, c):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))  # all mass already covered (duplicate-heavy data)
        centers[j] = points[idx]
        lower_to(centers[j])
    return centers


def _center_sums(points: np.ndarray, assign: np.ndarray, c: int) -> np.ndarray:
    """Per-center coordinate sums of contiguous points, rows added in index
    order (the same order, hence the same float sums, as np.add.at)."""
    d = points.shape[1]
    flat = (assign[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=points.ravel(), minlength=c * d).reshape(c, d)


def _repair_duplicate_centers(
    centers: np.ndarray, points: np.ndarray, assign: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """Re-seed bit-identical float32 centers from far-out points, best effort.

    Data with fewer distinct rows than centers cannot be fully repaired;
    whatever duplicates remain are left in place.
    """
    emitted = centers.astype(np.float32)
    _, first_idx = np.unique(emitted, axis=0, return_index=True)
    dup_slots = np.setdiff1d(np.arange(emitted.shape[0]), first_idx)
    if dup_slots.size == 0:
        return emitted
    taken = {row.tobytes() for row in emitted}
    candidates = np.lexsort((np.arange(points.shape[0]), -dist))
    ci = 0
    for slot in dup_slots:
        while ci < candidates.shape[0]:
            idx = candidates[ci]
            ci += 1
            if dist[idx] <= 0.0:
                return emitted  # nothing distinct left anywhere
            row = points[idx].astype(np.float32)
            key = row.tobytes()
            if key not in taken:
                emitted[slot] = row
                taken.add(key)
                break
    return emitted


def lloyd_kmeans(
    points: np.ndarray, c: int, max_iters: int = 25, *, rng: np.random.Generator
) -> np.ndarray:
    """Lloyd's algorithm on a raw float array. Returns float32 centers.

    k-means++ seeding, empty clusters re-seeded from the point farthest from
    its current center, stop when assignments no longer change.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"c={c} outside [1, {n}]")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    centers = _kmeanspp_init(points, c, rng)
    pnorm = _sq_norms(points)
    prev = None
    assign, dist = _nearest_center(points, centers, pnorm)
    for _ in range(max_iters):
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        sums = _center_sums(points, assign, c)
        counts = np.bincount(assign, minlength=c).astype(np.float64)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            # claim the points that current centers explain worst
            far = top_positions(dist, empty.size)
            for slot, idx in zip(empty, far):
                centers[slot] = points[idx]
        assign, dist = _nearest_center(points, centers, pnorm)
    return _repair_duplicate_centers(centers, points, assign, dist)


def train_kmeans(X: Dataset, c: int, max_iters: int = 25, seed: int = 0) -> Codebook:
    """Train a c-partition codebook on X, deterministically for a given seed."""
    if c > X.n:
        raise ValueError(f"cannot train {c} partitions on {X.n} datapoints")
    centers = lloyd_kmeans(X.data, c, max_iters=max_iters, rng=np.random.default_rng(seed))
    return Codebook(centers)


def assign_primary(X: Dataset, codebook: Codebook) -> AssignmentTable:
    """Nearest center per datapoint, ties toward the lower partition id."""
    if X.d != codebook.d:
        raise ValueError(f"dataset dimension {X.d} does not match codebook dimension {codebook.d}")
    assign, _ = _nearest_center(X.data.astype(np.float64), codebook.centers64)
    return AssignmentTable(primary=assign.astype(np.int32), spilled=None, policy="none")


def soar_loss(r_prime, r, lam: float) -> float:
    """||r'||^2 + lam * ||proj_r r'||^2, the spill-candidate objective.

    The penalty grows when the candidate residual r' lines up with the
    primary residual r. A zero primary residual contributes no penalty:
    the primary representation is exact, so any spill direction is fine.
    """
    _check_soar_lam(lam)
    rp = np.asarray(r_prime, dtype=np.float64)
    rv = np.asarray(r, dtype=np.float64)
    if rp.shape != rv.shape or rp.ndim != 1:
        raise ValueError(f"shape mismatch: {rp.shape} vs {rv.shape}")
    sq = float(rp @ rp)
    rr = float(rv @ rv)
    penalty = 0.0 if rr == 0.0 else float(rv @ rp) ** 2 / rr
    return sq + lam * penalty


def _spill_argmin(X: Dataset, codebook: Codebook, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """(primary, spilled) int32 partitions per point from one distance pass.

    Each chunk's primary is the argmin of its squared distances, the same
    blocks and hence the same bits as assign_primary's; the spill is the
    argmin of the spill objective over the other partitions. With lam == 0
    the objective is bitwise equal to the squared Euclidean distance, so
    this doubles as the second-nearest-center routine.
    """
    centers = codebook.centers64
    n = X.n
    cnorm = _sq_norms(centers)
    primary = np.empty(n, dtype=np.int32)
    spilled = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        rows = X.data[lo:hi].astype(np.float64)  # a chunk at a time: no float64 copy of X
        loss = _sq_dists(rows, centers, _sq_norms(rows), cnorm)
        prim = loss.argmin(axis=1)  # argmin takes the lowest index on ties
        primary[lo:hi] = prim
        if lam > 0.0:
            res = rows - centers[prim]
            norms = np.sqrt((res * res).sum(axis=1))
            rhat = np.divide(res, norms[:, None], out=np.zeros_like(res), where=norms[:, None] > 0)
            proj = (rhat * rows).sum(axis=1)[:, None] - rhat @ centers.T
            loss += lam * proj * proj
        loss[np.arange(hi - lo), prim] = np.inf
        spilled[lo:hi] = loss.argmin(axis=1)
    return primary, spilled


def _check_spill_inputs(X: Dataset, codebook: Codebook) -> None:
    if codebook.c < 2:
        raise ValueError("spilled assignment needs at least 2 partitions")
    if X.d != codebook.d:
        raise ValueError(f"dataset dimension {X.d} does not match codebook dimension {codebook.d}")


def assign_spilled_soar(X: Dataset, codebook: Codebook, lam: float) -> AssignmentTable:
    """Nearest center per point, and a second partition per point
    minimizing the parallelism-penalized loss against that primary."""
    _check_soar_lam(lam)
    _check_spill_inputs(X, codebook)
    primary, spilled = _spill_argmin(X, codebook, lam)
    return AssignmentTable(primary=primary, spilled=spilled, policy="soar", lam=float(lam))


def assign_spilled_naive(X: Dataset, codebook: Codebook) -> AssignmentTable:
    """Nearest and second-nearest center per point (squared Euclidean),
    ignoring geometry."""
    _check_spill_inputs(X, codebook)
    primary, spilled = _spill_argmin(X, codebook, lam=0.0)
    return AssignmentTable(primary=primary, spilled=spilled, policy="naive")
