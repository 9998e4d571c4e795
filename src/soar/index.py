"""The inverted-file index: build, search, and the on-disk format.

Build pipeline: train the partition codebook, assign every point to its
nearest partition, optionally spill each point into a second partition,
train a product quantizer on the primary residuals, and encode one posting
entry per (point, partition) membership. Spilled entries encode the
residual against the partition that holds them, with the same quantizer.

In memory the postings are one CSR ("compressed sparse row") table:
`offsets` (c+1,) int64, `ids` (E,) uint32 and `codes` (E, code_bytes)
uint8, where partition p holds rows offsets[p]:offsets[p+1] and E is n, or
2n for the spilled policies. Each partition's rows are its primaries, then
its spills, ids ascending within each run.

Search: rank partitions by query-center inner product, gather the rows of
the top `probes` partitions and score them with table-based approximate
scores (one lookup per code byte, see `pq.score_codes`); select the pool
of the best entries by (approximate score desc, id asc); rerank the first
`rerank` distinct ids among them with exact float32 scores, return the top
k. The probe, pool and k cuts each select with `core.top_positions` (ties
by partition id or datapoint id) instead of sorting everything, so none of
it depends on the row order within a partition.

The pool is `rerank` entries without a spill, where every id has one
entry. Under a spill it is 2 x `rerank`, and each id keeps only its first
entry: in that order an id's first entry is its best one, and the first
entries come in the order that deduplicating every scanned entry by best
score and sorting would give. An id has at most two entries, so the first
2 x `rerank` entries hold at least `rerank` distinct ids, and those are
the candidates a full dedup would rerank.

Two-stage scan: when at least _FIRST_STAGE_FROM times the pool is scanned,
`pq.estimate_scores` first estimates every scanned entry from integer
tables, each estimate within B of the entry's approximate score. Let q*
be the pool-th best estimate and a* the pool-th best approximate score.
The pool entries estimate at least q*, so they score at least q* - B,
hence a* >= q* - B; an entry scoring at least a* then estimates at least
a* - B >= q* - 2B. So keeping the entries that estimate at least q* - 2B
keeps every entry that can reach the pool. Only those are scored, in scan
order, and every later stage sees the same entries and the same bits.

On-disk format (".soar", little-endian throughout), the CSR table as is:

    header   magic "SOAR", u16 version=2, u8 policy, u8 reserved,
             u64 n, u32 d, u32 c, u32 s, u32 m, u32 code_bytes,
             f64 lambda, i64 seed                      (52 bytes, fixed)
    codebook        c * d float32
    pq codebook     m * 16 * s float32
    posting counts  c * (u32 primaries, u32 spills), ascending partition id
    posting ids     E u32, the CSR `ids`
    posting codes   E * code_bytes u8, the CSR `codes`
    full store      n * d float32

The counts give `offsets` and say which rows are primaries, so load reads
the assignment table from the postings: an id's primary partition is the
one holding it in a primary run, its spill the one holding it in a spill
run. A spilled build's file is exactly n * (4 + code_bytes) bytes larger
than an unspilled one, with an identical header. Version 1 files are
rejected and must be rebuilt.
"""

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, Neighbor, batch_inner_products, top_positions
from .pq import PQCodebook, estimate_scores, pq_encode_batch, score_codes, scoring_table, train_pq
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
_VERSION = 2
_HEADER = struct.Struct("<4sHBBQIIIIIdq")
HEADER_BYTES = _HEADER.size  # 52
_POLICY_CODE = {"none": 0, "naive": 1, "soar": 2}
_CODE_POLICY = {v: k for k, v in _POLICY_CODE.items()}
# search estimates every scanned entry first, and scores exactly only those
# that can reach the pool, when it scans at least this many times the pool.
# The first stage has a fixed cost of about 0.1 ms. Probes sweeps, two-stage
# against one-stage time per query (one BLAS thread, 2-vCPU host): on the
# 100k shell index (k = 10, pool 200) they break even at about 18x the pool
# (probes 6), 0.95 at 23x, 0.72 at 102x (probes 32); on 20k policy-eval
# shaped indices (k = 100, pool 2,000 under soar, 1,000 under none) at
# about 4.6x and 6x, and 1.07-1.19 at probes 8 (3x).
_FIRST_STAGE_FROM = 20


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
    ValueError for k, probes or rerank below 1, for a negative budget and
    when neither probes nor budget is set; k above the index size is caught
    by search.
    """

    k: int
    probes: int | None = None
    rerank: int | None = None
    budget: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.probes is not None and self.probes < 1:
            raise ValueError("probes must be at least 1")
        if self.rerank is not None and self.rerank < 1:
            raise ValueError("rerank must be at least 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.probes is None and self.budget is None:
            raise ValueError("need probes or budget")

    def resolved_rerank(self) -> int:
        return self.rerank if self.rerank is not None else max(10 * self.k, 100)


@dataclass(frozen=True)
class SearchResult:
    neighbors: list[Neighbor]
    datapoints_scanned: int


class SoarIndex:
    """Built index: codebook, CSR postings, quantizer, the raw datapoints,
    and the assignment table the postings were laid out from."""

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
        assignment: AssignmentTable,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if offsets.shape != (codebook.c + 1,) or not offsets[-1] == ids.shape[0] == codes.shape[0]:
            raise ValueError("posting table does not match partition count")
        self.codebook = codebook
        self.centers64 = codebook.centers.astype(np.float64)  # cast once, not per query
        self.pq_book = pq_book
        self.offsets = offsets
        self.ids = ids
        self.codes = codes
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
        return np.diff(self.offsets)


def _build_postings(
    X64: np.ndarray, codebook: Codebook, pq_book: PQCodebook, assignment: AssignmentTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One posting entry per membership, each encoding the residual against
    the partition that holds it: the CSR (offsets, ids, codes) table, each
    partition's primaries first, then its spills, ids ascending in each run."""
    centers = codebook.centers.astype(np.float64)
    memberships = [assignment.primary]
    if assignment.spilled is not None:
        memberships.append(assignment.spilled)
    parts = np.concatenate(memberships).astype(np.int64)
    ids = np.tile(np.arange(X64.shape[0], dtype=np.uint32), len(memberships))
    codes = np.concatenate([pq_encode_batch(X64 - centers[p], pq_book) for p in memberships])
    # the entries are already in (primary before spill, id) order, which a
    # stable sort by partition keeps within each partition
    order = np.argsort(parts, kind="stable")
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
    center_scores = (index.centers64 @ qv).astype(np.float32)
    # the budget walks partitions in rank order until it runs out, so it
    # needs them all ranked; probes needs only the best `probes`
    order = top_positions(center_scores, index.c if params.budget is not None else params.probes)
    scan = _partitions_to_scan(index, order, params)

    table = scoring_table(qv, index.pq_book)
    starts = index.offsets[scan]
    lengths = index.offsets[scan + 1] - starts
    scanned = int(lengths.sum())
    if scanned == 0:
        return SearchResult(neighbors=[], datapoints_scanned=0)
    # the probed rows in scan order: partition by partition, each one's
    # primaries then its spills
    rows = np.arange(scanned) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    codes = np.take(index.codes, rows, axis=0)  # about 10x faster here than codes[rows]
    base = np.repeat(center_scores[scan].astype(np.float64), lengths)
    spilled = index.ids.shape[0] != index.n  # an id can have two entries
    pool = 2 * rerank if spilled else rerank
    if scanned >= _FIRST_STAGE_FROM * pool:
        # keep, in scan order, every entry whose approximate score can
        # reach the pool (module docstring): estimate >= q* - 2 x bound
        estimates, bound = estimate_scores(table, codes, index.pq_book.m, base)
        cut = scanned - pool
        keep = np.flatnonzero(estimates >= np.partition(estimates, cut)[cut] - 2 * bound)
        rows, codes, base = rows[keep], codes[keep], base[keep]
    approx = base + score_codes(table, codes, index.pq_book.m)
    ids = index.ids[rows]
    # the best `pool` entries by (approximate score desc, id asc); under a
    # spill each id keeps its first, and best, entry (module docstring). The
    # candidates stay in that order for the exact scores: the float64
    # GEMV's result for a row can depend on its position.
    cand = ids[top_positions(approx, pool, ids)].astype(np.int64)
    if spilled:
        _, first = np.unique(cand, return_index=True)
        cand = cand[np.sort(first)]
    cand = cand[:rerank]
    exact = batch_inner_products(qv, index.full_store.data[cand])
    top = top_positions(exact, params.k, cand)
    neighbors = list(map(Neighbor, cand[top].tolist(), exact[top].tolist()))
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
    primaries = np.bincount(index.assignment.primary, minlength=index.c)
    counts = np.stack([primaries, index.posting_sizes() - primaries], axis=1)
    out += counts.astype("<u4").tobytes()
    out += index.ids.astype("<u4").tobytes()
    out += index.codes.tobytes()
    out += index.full_store.data.astype("<f4").tobytes()
    return bytes(out)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = memoryview(data)  # sections are sliced without a copy
        self.pos = 0

    def take(self, count: int, section: str) -> memoryview:
        """The next count bytes, checking they exist."""
        if self.pos + count > len(self.data):
            raise IndexFormatError(section, f"truncated: wanted {count} bytes, "
                                            f"{len(self.data) - self.pos} left")
        self.pos += count
        return self.data[self.pos - count : self.pos]


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
    # what build writes: a finite lambda >= 0 for soar, 0 for the other policies
    if not (math.isfinite(lam) and lam >= 0 if policy == "soar" else lam == 0):
        raise IndexFormatError("header", f"lambda {lam!r} invalid for policy {policy!r}")

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

    # The counts fix the lengths of the ids and codes, so they are checked first.
    counts = np.frombuffer(cur.take(8 * c, "posting lists"), dtype="<u4").reshape(c, 2)
    found = counts.sum(axis=0, dtype=np.int64).tolist()
    expected = [n, 0 if policy == "none" else n]
    if found != expected:
        raise IndexFormatError("posting lists", f"counts sum to {found[0]} primaries and {found[1]} "
                                                f"spills, expected {expected[0]} and {expected[1]}")
    offsets = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=1, dtype=np.int64), out=offsets[1:])
    total = int(offsets[-1])
    # copies, so the loaded index does not keep the file's bytes alive
    ids = np.frombuffer(cur.take(4 * total, "posting lists"), dtype="<u4").astype(np.uint32)
    codes = np.frombuffer(cur.take(code_bytes * total, "posting lists"), dtype=np.uint8)
    codes = codes.reshape(total, code_bytes).copy()
    # run r is partition r // 2's primaries (r even) or spills (r odd)
    runs = np.repeat(np.arange(2 * c), counts.ravel())
    out_of_range = ids >= n
    if out_of_range.any():
        p = runs[np.argmax(out_of_range)] // 2
        raise IndexFormatError("posting lists", f"partition {p} id out of range")
    unordered = (ids[1:] <= ids[:-1]) & (runs[1:] == runs[:-1])
    if unordered.any():
        p = runs[np.argmax(unordered) + 1] // 2
        raise IndexFormatError("posting lists", f"partition {p} ids not strictly increasing")

    def partitions_of(role: int, name: str) -> np.ndarray:
        """Each id's partition among the runs of one role. The runs hold n
        ids in range, so an id missing means another one repeated."""
        part = np.full(n, -1, dtype=np.int32)
        rows = runs % 2 == role
        part[ids[rows]] = runs[rows] // 2
        if np.any(part < 0):
            raise IndexFormatError("posting lists", f"each id must have exactly one {name} entry")
        return part

    primary = partitions_of(0, "primary")
    spilled = None if policy == "none" else partitions_of(1, "spill")
    if spilled is not None and np.any(spilled == primary):
        raise IndexFormatError("posting lists", "an id's primary and spill share a partition")

    full_store = read_f32("full store", (n, d), Dataset)
    if cur.pos != len(data):
        raise IndexFormatError("full store", f"{len(data) - cur.pos} trailing bytes")

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
        assignment=AssignmentTable(primary, spilled, policy, lam if policy == "soar" else None),
    )


def save(index: SoarIndex, path) -> None:
    """Write the index atomically (see write_atomic)."""
    write_atomic(path, serialize(index))


def write_atomic(path, data: bytes) -> None:
    """Write data into a temp file beside path, fsync it, then os.replace
    it over path, so neither a failed write nor a crash leaves a partial
    file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path) -> SoarIndex:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
