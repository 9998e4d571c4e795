"""The inverted-file index: build, search, and the on-disk format.

Build pipeline: train the partition codebook, assign every point to its
nearest partition, optionally spill each point into a second partition,
train a product quantizer on the primary residuals, and encode one posting
entry per (point, partition) membership. Spilled entries encode the
residual against the partition that holds them, with the same quantizer.

Search: rank partitions by query-center inner product, scan the postings of
the top `probes` partitions with table-based approximate scores, dedup by
id keeping the best approximate score, rerank the best `rerank` candidates
with exact float32 scores, return the top k.

On-disk format (".soar", little-endian throughout):

    header   magic "SOAR", u16 version=1, u8 policy, u8 reserved,
             u64 n, u32 d, u32 c, u32 s, u32 m, u32 code_bytes,
             f64 lambda, i64 seed                      (52 bytes, fixed)
    codebook        c * d float32
    pq codebook     m * 16 * s float32
    posting lists   per partition, ascending partition id:
                    u32 partition id, u32 length,
                    then length entries of (u32 datapoint id, code bytes)
    full store      n * d float32

The assignment table is not stored: primary assignments are recomputed from
the codebook at load time (deterministic given the stored float32 data) and
spilled assignments are the other partition in which an id appears. That
keeps the file delta between a spilled and an unspilled build exactly
n * (4 + code_bytes) bytes, with an identical header.
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


@dataclass
class SearchParams:
    """How hard to look: partitions to probe, rerank depth, optional budget.

    budget, when set, overrides probes: whole partitions are scanned in rank
    order until the next one would push the scanned-datapoint count past the
    budget. rerank defaults to max(10 * k, 100).
    """

    k: int
    probes: int | None = None
    rerank: int | None = None
    budget: int | None = None

    def resolved_rerank(self) -> int:
        return self.rerank if self.rerank is not None else max(10 * self.k, 100)


@dataclass(frozen=True)
class SearchResult:
    neighbors: list[Neighbor]
    datapoints_scanned: int


class SoarIndex:
    """Built index: codebook, postings, quantizer, and the raw datapoints."""

    def __init__(
        self,
        codebook: Codebook,
        pq_book: PQCodebook,
        posting_ids: list[np.ndarray],
        posting_codes: list[np.ndarray],
        full_store: Dataset,
        assignment: AssignmentTable,
        policy: str,
        lam: float,
        seed: int,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if len(posting_ids) != codebook.c or len(posting_codes) != codebook.c:
            raise ValueError("posting list count does not match partition count")
        self.codebook = codebook
        self.pq_book = pq_book
        self.posting_ids = posting_ids
        self.posting_codes = posting_codes
        self.full_store = full_store
        self.assignment = assignment
        self.policy = policy
        self.lam = float(lam)
        self.seed = int(seed)

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
        return np.array([ids.shape[0] for ids in self.posting_ids], dtype=np.int64)


def _build_postings(
    X: Dataset, codebook: Codebook, pq_book: PQCodebook, assignment: AssignmentTable
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One posting entry per membership, each encoding the residual against
    the partition that holds it. Entries are sorted by id within a list."""
    centers = codebook.centers.astype(np.float64)
    n, c = X.n, codebook.c
    memberships = [(assignment.primary, True)]
    if assignment.spilled is not None:
        memberships.append((assignment.spilled, False))
    ids_per_part: list[list[np.ndarray]] = [[] for _ in range(c)]
    codes_per_part: list[list[np.ndarray]] = [[] for _ in range(c)]
    for parts, _is_primary in memberships:
        residuals = X.data.astype(np.float64) - centers[parts]
        codes = pq_encode_batch(residuals, pq_book)
        order = np.argsort(parts, kind="stable")  # stable keeps ids ascending
        sorted_parts = parts[order]
        bounds = np.searchsorted(sorted_parts, np.arange(c + 1))
        for p in range(c):
            sel = order[bounds[p] : bounds[p + 1]]
            if sel.size:
                ids_per_part[p].append(sel.astype(np.uint32))
                codes_per_part[p].append(codes[sel])
    posting_ids: list[np.ndarray] = []
    posting_codes: list[np.ndarray] = []
    for p in range(c):
        if ids_per_part[p]:
            ids = np.concatenate(ids_per_part[p])
            codes = np.concatenate(codes_per_part[p], axis=0)
            order = np.argsort(ids, kind="stable")
            posting_ids.append(ids[order])
            posting_codes.append(codes[order])
        else:
            posting_ids.append(np.empty(0, dtype=np.uint32))
            posting_codes.append(np.empty((0, pq_book.code_bytes), dtype=np.uint8))
    return posting_ids, posting_codes


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
    residuals = X.data.astype(np.float64) - codebook.centers.astype(np.float64)[primary.primary]
    pq_book = train_pq(residuals, s=s, seed=seed)
    posting_ids, posting_codes = _build_postings(X, codebook, pq_book, assignment)
    return SoarIndex(
        codebook=codebook,
        pq_book=pq_book,
        posting_ids=posting_ids,
        posting_codes=posting_codes,
        full_store=X,
        assignment=assignment,
        policy=policy,
        lam=lam if policy == "soar" else 0.0,
        seed=seed,
    )


def _partitions_to_scan(index: SoarIndex, order: np.ndarray, params: SearchParams) -> np.ndarray:
    if params.budget is not None:
        if params.budget < 0:
            raise ValueError("budget must be non-negative")
        sizes = index.posting_sizes()[order]
        within = np.cumsum(sizes) <= params.budget
        stop = int(np.argmin(within)) if not within.all() else order.shape[0]
        return order[:stop]
    if params.probes is None:
        raise ValueError("need probes or budget")
    if params.probes < 1:
        raise ValueError("probes must be at least 1")
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
    centers = index.codebook.centers.astype(np.float64)
    center_scores = (centers @ qv).astype(np.float32)
    order = np.lexsort((np.arange(index.c), -center_scores))
    scan = _partitions_to_scan(index, order, params)

    table = scoring_table(qv, index.pq_book)
    all_ids: list[np.ndarray] = []
    all_scores: list[np.ndarray] = []
    scanned = 0
    for p in scan:
        ids = index.posting_ids[p]
        scanned += ids.shape[0]
        if ids.shape[0] == 0:
            continue
        approx = float(center_scores[p]) + score_codes(table, index.posting_codes[p], index.pq_book.m)
        all_ids.append(ids.astype(np.int64))
        all_scores.append(approx)
    if not all_ids:
        return SearchResult(neighbors=[], datapoints_scanned=scanned)

    ids = np.concatenate(all_ids)
    approx = np.concatenate(all_scores)
    # dedup: keep the best approximate score per id
    keep = np.lexsort((-approx, ids))
    ids, approx = ids[keep], approx[keep]
    first = np.ones(ids.shape[0], dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ids, approx = ids[first], approx[first]

    take = np.lexsort((ids, -approx))[: params.resolved_rerank()]
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
    for p in range(index.c):
        ids = index.posting_ids[p]
        codes = index.posting_codes[p]
        out += struct.pack("<II", p, ids.shape[0])
        if ids.shape[0]:
            entries = np.empty((ids.shape[0], entry_bytes), dtype=np.uint8)
            entries[:, :4] = ids.astype("<u4")[:, None].view(np.uint8)
            entries[:, 4:] = codes
            out += entries.tobytes()
    out += index.full_store.data.astype("<f4").tobytes()
    return bytes(out)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, section: str) -> bytes:
        if self.pos + count > len(self.data):
            raise IndexFormatError(section, f"truncated: wanted {count} bytes, "
                                            f"{len(self.data) - self.pos} left")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk


def _derive_assignment(
    full_store: Dataset,
    codebook: Codebook,
    posting_ids: list[np.ndarray],
    policy: str,
    lam: float,
) -> AssignmentTable:
    """Rebuild the assignment table from postings plus the codebook.

    The partition an id appears in is its primary for single-assignment
    indices. For spilled indices the primary is recomputed (deterministic
    nearest-center over the stored float32 data) and the other occurrence
    is the spill. Should recomputation ever disagree with the stored
    occurrences, the lower-id occurrence is treated as primary.
    """
    n = full_store.n
    first = np.full(n, -1, dtype=np.int64)
    second = np.full(n, -1, dtype=np.int64)
    for p, ids in enumerate(posting_ids):
        taken = first[ids] != -1
        first[ids[~taken]] = p
        second[ids[taken]] = p
    if policy == "none":
        return AssignmentTable(primary=first.astype(np.int32), spilled=None, policy="none")
    computed = assign_primary(full_store, codebook).primary.astype(np.int64)
    primary = np.where(computed == second, second, first)
    spilled = np.where(computed == second, first, second)
    return AssignmentTable(
        primary=primary.astype(np.int32),
        spilled=spilled.astype(np.int32),
        policy=policy,
        lam=lam if policy == "soar" else None,
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

    def read_f32(count: int, section: str) -> np.ndarray:
        arr = np.frombuffer(cur.take(4 * count, section), dtype="<f4")
        if not np.all(np.isfinite(arr)):
            raise IndexFormatError(section, "non-finite float values")
        return arr

    try:
        codebook = Codebook(read_f32(c * d, "codebook").reshape(c, d))
    except ValueError as exc:
        if isinstance(exc, IndexFormatError):
            raise
        raise IndexFormatError("codebook", str(exc)) from exc
    try:
        pq_book = PQCodebook(read_f32(m * 16 * s, "pq codebook").reshape(m, 16, s), d=d)
    except ValueError as exc:
        if isinstance(exc, IndexFormatError):
            raise
        raise IndexFormatError("pq codebook", str(exc)) from exc

    entry_bytes = 4 + code_bytes
    posting_ids: list[np.ndarray] = []
    posting_codes: list[np.ndarray] = []
    total = 0
    for p in range(c):
        pid, length = struct.unpack("<II", cur.take(8, "posting lists"))
        if pid != p:
            raise IndexFormatError("posting lists", f"expected partition {p}, found {pid}")
        if length > n:
            raise IndexFormatError("posting lists", f"partition {p} length {length} exceeds n={n}")
        raw_entries = np.frombuffer(cur.take(entry_bytes * length, "posting lists"), dtype=np.uint8)
        entries = raw_entries.reshape(length, entry_bytes)
        ids = entries[:, :4].copy().view("<u4").reshape(length).astype(np.int64)
        if length:
            if ids.max() >= n:
                raise IndexFormatError("posting lists", f"partition {p} id out of range")
            if np.any(np.diff(ids) <= 0):
                raise IndexFormatError("posting lists", f"partition {p} ids not strictly increasing")
        posting_ids.append(ids.astype(np.uint32))
        posting_codes.append(entries[:, 4:].copy())
        total += length
    expected_total = n if policy == "none" else 2 * n
    if total != expected_total:
        raise IndexFormatError(
            "posting lists", f"{total} entries for policy {policy!r}, expected {expected_total}"
        )

    try:
        full_store = Dataset(read_f32(n * d, "full store").reshape(n, d))
    except ValueError as exc:
        if isinstance(exc, IndexFormatError):
            raise
        raise IndexFormatError("full store", str(exc)) from exc
    if cur.pos != len(data):
        raise IndexFormatError("full store", f"{len(data) - cur.pos} trailing bytes")

    occurrences = np.zeros(n, dtype=np.int64)
    for ids in posting_ids:
        occurrences[ids] += 1
    want = 1 if policy == "none" else 2
    if not np.all(occurrences == want):
        raise IndexFormatError("posting lists", f"each id must appear exactly {want} time(s)")

    assignment = _derive_assignment(full_store, codebook, posting_ids, policy, lam)
    return SoarIndex(
        codebook=codebook,
        pq_book=pq_book,
        posting_ids=posting_ids,
        posting_codes=posting_codes,
        full_store=full_store,
        assignment=assignment,
        policy=policy,
        lam=lam,
        seed=seed,
    )


def save(index: SoarIndex, path) -> None:
    """Write the index atomically: into a temp file beside path, then
    os.replace over it, so a failed write never leaves a partial index."""
    path = Path(path)
    data = serialize(index)
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
