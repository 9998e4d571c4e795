"""The inverted-file index: build, search, and the on-disk format.

Build pipeline: train the partition codebook, assign every point to its
nearest partition, optionally spill each point into a second partition,
train a product quantizer on the primary residuals, and encode one posting
entry per (point, partition) membership. Spilled entries encode the
residual against the partition that holds them, with the same quantizer.

In memory the postings are one CSR ("compressed sparse row") table sorted
by (partition, id): `offsets` (c+1,) int64, `ids` (E,) uint32 and `codes`
(E, code_bytes) uint8, where partition p holds rows offsets[p]:offsets[p+1]
and E is n, or 2n for the spilled policies.

Search: rank partitions by query-center inner product, gather the rows of
the top `probes` partitions and score them with table-based approximate
scores (one lookup per code byte, see `pq.score_codes`), keep the pool of
entries scoring at least the (entries per id x `rerank`)-th best, dedup the
pool by id keeping the best approximate score, rerank the best `rerank`
candidates with exact float32 scores, return the top k. The pool only
drops entries that cannot reach the top `rerank`, so results equal those
of deduplicating every scanned entry.

On-disk format (".soar", little-endian throughout):

    header   magic "SOAR", u16 version=1, u8 policy, u8 reserved,
             u64 n, u32 d, u32 c, u32 s, u32 m, u32 code_bytes,
             f64 lambda, i64 seed                      (52 bytes, fixed)
    codebook        c * d float32
    pq codebook     m * 16 * s float32
    posting lists   per partition, ascending partition id:
                    u32 partition id, u32 length,
                    then length entries of (u32 datapoint id, code bytes);
                    that is, the CSR rows with a head before each partition
    full store      n * d float32

The assignment table is not stored. A loaded index derives it on first
access of `SoarIndex.assignment`, so loading and serving never compute it:
primary assignments are recomputed from the codebook (deterministic given
the stored float32 data) and spilled assignments are the other partition in
which an id appears. That keeps the file delta between a spilled and an
unspilled build exactly n * (4 + code_bytes) bytes, with an identical header.
"""

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, Neighbor, batch_inner_products
from .pq import PQCodebook, pq_encode_batch, score_codes, scoring_table, train_pq
from .vq import (
    AssignmentTable,
    Codebook,
    POLICIES,
    assign_primary,
    assign_spilled_naive,
    assign_spilled_soar,
    train_kmeans,
)

__all__ = [
    "SearchParams",
    "SearchResult",
    "SoarIndex",
    "IndexFormatError",
    "build",
    "search",
    "serialize",
    "deserialize",
    "save",
    "load",
    "write_atomic",
    "HEADER_BYTES",
]

_MAGIC = b"SOAR"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBQIIIIIdq")
HEADER_BYTES = _HEADER.size  # 52
_POLICY_CODE = {"none": 0, "naive": 1, "soar": 2}
_CODE_POLICY = {v: k for k, v in _POLICY_CODE.items()}


class IndexFormatError(ValueError):
    """Raised when serialized index bytes are malformed; names the section."""

    def __init__(self, section: str, message: str):
        self.section = section
        super().__init__(f"{section}: {message}")


@dataclass(frozen=True)
class SearchParams:
    """How hard to look: partitions to probe, rerank depth, optional budget.

    budget, when set, overrides probes: whole partitions are scanned in rank
    order until the next one would push the scanned-datapoint count past the
    budget. rerank defaults to max(10 * k, 100). Construction raises
    ValueError for probes or rerank below 1 and for a negative budget.
    """

    k: int
    probes: int | None = None
    rerank: int | None = None
    budget: int | None = None

    def __post_init__(self):
        if self.probes is not None and self.probes < 1:
            raise ValueError("probes must be at least 1")
        if self.rerank is not None and self.rerank < 1:
            raise ValueError("rerank must be at least 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative")

    def resolved_rerank(self) -> int:
        return self.rerank if self.rerank is not None else max(10 * self.k, 100)


@dataclass(frozen=True)
class SearchResult:
    neighbors: list[Neighbor]
    datapoints_scanned: int


class SoarIndex:
    """Built index: codebook, CSR postings, quantizer, and the raw datapoints.

    assignment may be left out; it is then derived from the postings on
    first access (see the module docstring).
    """

    def __init__(
        self,
        codebook: Codebook,
        pq_book: PQCodebook,
        offsets: np.ndarray,
        ids: np.ndarray,
        codes: np.ndarray,
        full_store: Dataset,
        policy: str,
        lam: float,
        seed: int,
        assignment: AssignmentTable | None = None,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if offsets.shape != (codebook.c + 1,) or not offsets[-1] == ids.shape[0] == codes.shape[0]:
            raise ValueError("posting table does not match partition count")
        self.codebook = codebook
        self.pq_book = pq_book
        self.offsets = offsets
        self.ids = ids
        self.codes = codes
        self.full_store = full_store
        self._assignment = assignment
        self.policy = policy
        self.lam = float(lam)
        self.seed = int(seed)

    @property
    def assignment(self) -> AssignmentTable:
        if self._assignment is None:
            self._assignment = _derive_assignment(self)
        return self._assignment

    @property
    def n(self) -> int:
        return self.full_store.n

    @property
    def d(self) -> int:
        return self.full_store.d

    @property
    def c(self) -> int:
        return self.codebook.c

    def posting_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)


def _build_postings(
    X64: np.ndarray, codebook: Codebook, pq_book: PQCodebook, assignment: AssignmentTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One posting entry per membership, each encoding the residual against
    the partition that holds it: the CSR (offsets, ids, codes) table."""
    centers = codebook.centers.astype(np.float64)
    memberships = [assignment.primary]
    if assignment.spilled is not None:
        memberships.append(assignment.spilled)
    parts = np.concatenate(memberships).astype(np.int64)
    ids = np.tile(np.arange(X64.shape[0], dtype=np.uint32), len(memberships))
    codes = np.concatenate([pq_encode_batch(X64 - centers[p], pq_book) for p in memberships])
    order = np.lexsort((ids, parts))
    offsets = np.searchsorted(parts[order], np.arange(codebook.c + 1)).astype(np.int64)
    return offsets, ids[order], codes[order]


def build(
    X: Dataset,
    c: int,
    policy: str = "soar",
    s: int = 2,
    seed: int = 42,
    lam: float = 1.0,
    max_iters: int = 25,
) -> SoarIndex:
    """Train and assemble an index over X. Deterministic for a given seed."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "soar" and lam < 0:
        raise ValueError("lam must be non-negative")
    codebook = train_kmeans(X, c, max_iters=max_iters, seed=seed)
    primary = assign_primary(X, codebook)
    if policy == "naive":
        assignment = assign_spilled_naive(X, codebook, primary)
    elif policy == "soar":
        assignment = assign_spilled_soar(X, codebook, primary, lam)
    else:
        assignment = primary
    X64 = X.data.astype(np.float64)
    pq_book = train_pq(X64 - codebook.centers.astype(np.float64)[primary.primary], s=s, seed=seed)
    offsets, ids, codes = _build_postings(X64, codebook, pq_book, assignment)
    return SoarIndex(
        codebook=codebook,
        pq_book=pq_book,
        offsets=offsets,
        ids=ids,
        codes=codes,
        full_store=X,
        policy=policy,
        lam=lam if policy == "soar" else 0.0,
        seed=seed,
        assignment=assignment,
    )


def _partitions_to_scan(index: SoarIndex, order: np.ndarray, params: SearchParams) -> np.ndarray:
    if params.budget is not None:
        sizes = index.posting_sizes()[order]
        within = np.cumsum(sizes) <= params.budget
        stop = int(np.argmin(within)) if not within.all() else order.shape[0]
        return order[:stop]
    if params.probes is None:
        raise ValueError("need probes or budget")
    return order[: min(params.probes, index.c)]  # probes past c just means "all"


def search(index: SoarIndex, q, params: SearchParams) -> SearchResult:
    """Approximate top-k for one query. See the module docstring for stages."""
    if not 1 <= params.k <= index.n:
        raise ValueError(f"k={params.k} outside [1, {index.n}]")
    qv = np.asarray(q, dtype=np.float64)
    if qv.ndim != 1 or qv.shape[0] != index.d:
        raise ValueError(f"query of shape {qv.shape} does not match index dimension {index.d}")
    if not np.all(np.isfinite(qv)):
        raise ValueError("query contains NaN or Inf")
    rerank = params.resolved_rerank()
    centers = index.codebook.centers.astype(np.float64)
    center_scores = (centers @ qv).astype(np.float32)
    order = np.lexsort((np.arange(index.c), -center_scores))
    scan = _partitions_to_scan(index, order, params)

    table = scoring_table(qv, index.pq_book)
    starts = index.offsets[scan]
    lengths = index.offsets[scan + 1] - starts
    scanned = int(lengths.sum())
    if scanned == 0:
        return SearchResult(neighbors=[], datapoints_scanned=0)
    # the probed rows in scan order: partition by partition, ids ascending
    rows = np.arange(scanned) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    codes = np.take(index.codes, rows, axis=0)  # about 10x faster here than codes[rows]
    approx = np.repeat(center_scores[scan].astype(np.float64), lengths) + score_codes(
        table, codes, index.pq_book.m
    )
    pool = index.ids.shape[0] // index.n * rerank  # entries per id (1, or 2 spilled) x rerank
    if pool < scanned:
        # Keep every entry scoring at least the pool-th best, ties included.
        # The kept entries cover at least `rerank` distinct ids, and an id
        # with any entry kept has its best entry kept, so no id left out can
        # reach the top `rerank`: dedup and top-R over the pool equal those
        # over every scanned entry.
        cut = scanned - pool
        keep = approx >= np.partition(approx, cut)[cut]
        rows, approx = rows[keep], approx[keep]
    ids = index.ids[rows].astype(np.int64)
    # dedup: keep the best approximate score per id
    keep = np.lexsort((-approx, ids))
    ids, approx = ids[keep], approx[keep]
    first = np.ones(ids.shape[0], dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ids, approx = ids[first], approx[first]

    take = np.lexsort((ids, -approx))[:rerank]
    cand = ids[take]
    exact = batch_inner_products(qv, index.full_store.data[cand])
    top = np.lexsort((cand, -exact))[: params.k]
    neighbors = [Neighbor(int(cand[i]), float(exact[i])) for i in top]
    return SearchResult(neighbors=neighbors, datapoints_scanned=scanned)


def serialize(index: SoarIndex) -> bytes:
    """Pack the index into the on-disk byte layout described above."""
    book = index.pq_book
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _POLICY_CODE[index.policy],
        0,
        index.n,
        index.d,
        index.c,
        book.s,
        book.m,
        book.code_bytes,
        index.lam,
        index.seed,
    )
    out = bytearray(header)
    out += index.codebook.centers.astype("<f4").tobytes()
    out += book.centers.astype("<f4").tobytes()
    entry_bytes = 4 + book.code_bytes
    entries = np.empty((index.ids.shape[0], entry_bytes), dtype=np.uint8)
    entries[:, :4] = index.ids.astype("<u4")[:, None].view(np.uint8)
    entries[:, 4:] = index.codes
    heads = np.stack([np.arange(index.c), index.posting_sizes()], axis=1).astype("<u4")
    is_entry = _entry_bytes_mask(index.offsets, entry_bytes)
    section = np.empty(is_entry.shape[0], dtype=np.uint8)
    section[is_entry] = entries.ravel()
    section[~is_entry] = heads.view(np.uint8).ravel()
    out += section.tobytes()
    out += index.full_store.data.astype("<f4").tobytes()
    return bytes(out)


def _entry_bytes_mask(offsets: np.ndarray, entry_bytes: int) -> np.ndarray:
    """The posting-list section's layout: a mask over its bytes that is
    False on the 8-byte head (u32 partition id, u32 length) before each
    partition and True on the entries that follow it."""
    c = offsets.shape[0] - 1
    heads = 8 * np.arange(c) + entry_bytes * offsets[:-1]
    is_entry = np.ones(8 * c + entry_bytes * int(offsets[-1]), dtype=bool)
    is_entry[(heads[:, None] + np.arange(8)).ravel()] = False
    return is_entry


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip(self, count: int, section: str) -> int:
        """Step past the next count bytes, checking they exist; returns
        where they start."""
        if self.pos + count > len(self.data):
            raise IndexFormatError(section, f"truncated: wanted {count} bytes, "
                                            f"{len(self.data) - self.pos} left")
        start = self.pos
        self.pos += count
        return start

    def take(self, count: int, section: str) -> bytes:
        start = self.skip(count, section)
        return self.data[start : self.pos]


def _derive_assignment(index: SoarIndex) -> AssignmentTable:
    """Rebuild the assignment table from the postings plus the codebook.

    The partition an id appears in is its primary for single-assignment
    indices. For spilled indices the primary is recomputed (deterministic
    nearest-center over the stored float32 data) and the other occurrence
    is the spill. Should recomputation ever disagree with the stored
    occurrences, the lower-partition occurrence is treated as primary.
    """
    parts = np.repeat(np.arange(index.c, dtype=np.int64), index.posting_sizes())
    # each id's partitions, ascending, because rows are sorted by partition
    by_id = parts[np.argsort(index.ids, kind="stable")]
    if index.policy == "none":
        return AssignmentTable(primary=by_id.astype(np.int32), spilled=None, policy="none")
    first, second = by_id[0::2], by_id[1::2]
    computed = assign_primary(index.full_store, index.codebook).primary.astype(np.int64)
    primary = np.where(computed == second, second, first)
    spilled = np.where(computed == second, first, second)
    return AssignmentTable(
        primary=primary.astype(np.int32),
        spilled=spilled.astype(np.int32),
        policy=index.policy,
        lam=index.lam if index.policy == "soar" else None,
    )


def deserialize(data: bytes) -> SoarIndex:
    """Parse bytes produced by serialize, validating each section."""
    cur = _Cursor(data)
    raw = cur.take(HEADER_BYTES, "header")
    magic, version, policy_code, _, n, d, c, s, m, code_bytes, lam, seed = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise IndexFormatError("header", f"bad magic {magic!r}")
    if version != _VERSION:
        raise IndexFormatError("header", f"unsupported version {version}")
    if policy_code not in _CODE_POLICY:
        raise IndexFormatError("header", f"unknown policy code {policy_code}")
    policy = _CODE_POLICY[policy_code]
    if n < 1 or d < 1 or c < 1 or s < 1:
        raise IndexFormatError("header", f"non-positive sizes n={n} d={d} c={c} s={s}")
    if m != math.ceil(d / s):
        raise IndexFormatError("header", f"m={m} inconsistent with d={d}, s={s}")
    if code_bytes != (m + 1) // 2:
        raise IndexFormatError("header", f"code_bytes={code_bytes} inconsistent with m={m}")

    def read_f32(section: str, shape: tuple, make):
        """make(array) from the next float32 section, shaped; a ValueError
        from make is reported as a format error in that section."""
        arr = np.frombuffer(cur.take(4 * math.prod(shape), section), dtype="<f4")
        if not np.all(np.isfinite(arr)):
            raise IndexFormatError(section, "non-finite float values")
        try:
            return make(arr.reshape(shape))
        except ValueError as exc:
            raise IndexFormatError(section, str(exc)) from exc

    codebook = read_f32("codebook", (c, d), Codebook)
    pq_book = read_f32("pq codebook", (m, 16, s), lambda arr: PQCodebook(arr, d=d))

    # The heads must be walked in order: each length says where the next
    # head sits. The entries are only bounds-checked here, then cut out at once.
    entry_bytes = 4 + code_bytes
    section_start = cur.pos
    sizes = np.empty(c, dtype=np.int64)
    for p in range(c):
        pid, length = struct.unpack_from("<II", data, cur.skip(8, "posting lists"))
        if pid != p:
            raise IndexFormatError("posting lists", f"expected partition {p}, found {pid}")
        if length > n:
            raise IndexFormatError("posting lists", f"partition {p} length {length} exceeds n={n}")
        cur.skip(entry_bytes * length, "posting lists")
        sizes[p] = length
    offsets = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    section = np.frombuffer(data, np.uint8, count=cur.pos - section_start, offset=section_start)
    entries = section[_entry_bytes_mask(offsets, entry_bytes)].reshape(-1, entry_bytes)
    ids = entries[:, :4].copy().view("<u4").ravel()
    codes = entries[:, 4:].copy()
    parts = np.repeat(np.arange(c), sizes)
    out_of_range = ids >= n
    if out_of_range.any():
        p = parts[np.argmax(out_of_range)]
        raise IndexFormatError("posting lists", f"partition {p} id out of range")
    unordered = (np.diff(ids.astype(np.int64)) <= 0) & (parts[1:] == parts[:-1])
    if unordered.any():
        p = parts[np.argmax(unordered) + 1]
        raise IndexFormatError("posting lists", f"partition {p} ids not strictly increasing")
    total = int(offsets[-1])
    expected_total = n if policy == "none" else 2 * n
    if total != expected_total:
        raise IndexFormatError(
            "posting lists", f"{total} entries for policy {policy!r}, expected {expected_total}"
        )

    full_store = read_f32("full store", (n, d), Dataset)
    if cur.pos != len(data):
        raise IndexFormatError("full store", f"{len(data) - cur.pos} trailing bytes")

    want = 1 if policy == "none" else 2
    if not np.all(np.bincount(ids, minlength=n) == want):
        raise IndexFormatError("posting lists", f"each id must appear exactly {want} time(s)")

    return SoarIndex(
        codebook=codebook,
        pq_book=pq_book,
        offsets=offsets,
        ids=ids,
        codes=codes,
        full_store=full_store,
        policy=policy,
        lam=lam,
        seed=seed,
    )


def save(index: SoarIndex, path) -> None:
    """Write the index atomically (see write_atomic)."""
    write_atomic(path, serialize(index))


def write_atomic(path, data: bytes) -> None:
    """Write data into a temp file beside path, then os.replace it over
    path, so a failed write never leaves a partial file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path) -> SoarIndex:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
