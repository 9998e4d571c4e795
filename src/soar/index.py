"""The inverted-file index: build, search, and the on-disk format.

Build pipeline: train the partition codebook; assign every point to its
nearest partition (assign_primary), or, for a spilled policy, to its
nearest and a second partition in one distance pass (assign_spilled_*);
form the primary residuals once, train a product quantizer on them and
encode them; then encode the spilled entries' residuals against the
partitions that hold them, with the same quantizer, in the same buffer.

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
it depends on the row order within a partition; the rerank gathers the
candidates' full-store rows with `np.take`.

The pool is `rerank` entries without a spill, where every id has one
entry. Under a spill it is 2 x `rerank`, and each id keeps only its first
entry: in that order an id's first entry is its best one, and the first
entries come in the order that deduplicating every scanned entry by best
score and sorting would give. An id has at most two entries, so the first
2 x `rerank` entries hold at least `rerank` distinct ids, and those are
the candidates a full dedup would rerank. The dedup sorts the pool's ids
once: an id's two entries end up side by side, and the later pool
position of each such pair is dropped.

On-disk format (".soar", little-endian throughout): the header, then the
CSR table as it is held in memory. The header is

    magic "SOAR", u16 version=2, u8 policy, u8 reserved, u64 n, u32 d,
    u32 c, u32 s, u32 m, u32 code_bytes, f64 lambda, i64 seed  (52 bytes)

`sections` lists the file's sections in order with their sizes, from the
header fields alone: the codebook, the PQ codebook, the posting counts
(u32 primaries and u32 spills per partition, ascending partition id), ids
and codes, and the float32 full store. serialize writes them in that
order; deserialize, `soar build`'s size check and `memory_accounting` take
their sizes from it.

The counts give `offsets` and say which rows are primaries, so load reads
the assignment table from the postings: an id's primary partition is the
one holding it in a primary run, its spill the one holding it in a spill
run. A spilled build's file is exactly n * (4 + code_bytes) bytes larger
than an unspilled one, with an identical header. Version 1 files are
rejected and must be rebuilt.

`load` maps the file read-only instead of reading it, and the index's ids,
codes and full store are read-only views of the mapping, which the index
keeps alive. The full store is copied instead when E * code_bytes is not a
multiple of 4, which leaves its floats unaligned. Never truncate or
rewrite a loaded file in place: the process serving it would get SIGBUS on
its next read. `save` never does, since it replaces the file atomically
(`write_atomic`), and a process serving the old file keeps reading the old
bytes.
"""

import math
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, Neighbor, batch_inner_products, top_positions
from .pq import SUBSPACE_CENTERS, PQCodebook, pq_encode_batch, score_codes, scoring_table, train_pq
from .vq import (
    AssignmentTable,
    Codebook,
    POLICIES,
    _check_soar_lam,
    _valid_lam,
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
    "sections",
    "MemoryAccounting",
    "memory_accounting",
]

_MAGIC = b"SOAR"
_VERSION = 2
_HEADER = struct.Struct("<4sHBBQIIIIIdq")
HEADER_BYTES = _HEADER.size  # 52
_POLICY_CODE = {"none": 0, "naive": 1, "soar": 2}
_CODE_POLICY = {v: k for k, v in _POLICY_CODE.items()}


def sections(n: int, d: int, c: int, s: int, spilled: bool) -> list[tuple[str, int]]:
    """The file's sections in order as (name, bytes), from header fields
    alone. Each name is the section an IndexFormatError reports; the three
    "posting lists" sections are the counts, the ids and the codes."""
    m = math.ceil(d / s)
    entries = 2 * n if spilled else n
    return [
        ("header", HEADER_BYTES),
        ("codebook", 4 * c * d),
        ("pq codebook", 4 * m * SUBSPACE_CENTERS * s),
        ("posting lists", 8 * c),
        ("posting lists", 4 * entries),
        ("posting lists", (m + 1) // 2 * entries),
        ("full store", 4 * n * d),
    ]


@dataclass(frozen=True)
class MemoryAccounting:
    """Byte costs of one datapoint and of the whole spill, plus ratios, for
    an index that stores its vectors as float32.

    relative_increase is the share of the final (spilled) index the second
    copies occupy: per_point_pq / (per_point_full + 2 * per_point_pq).
    approx_relative_increase is the round-number rule of thumb 1 / (8s + 1).
    """

    per_point_pq: int
    per_point_full: int
    soar_overhead_bytes: int
    relative_increase: float
    approx_relative_increase: float


def memory_accounting(n: int, d: int, s: int, spilled: bool = True) -> MemoryAccounting:
    """Predict the exact byte cost of posting entries and the spill overhead
    from the section table.

    per_point_pq counts a 4-byte id plus ceil(m / 2) packed code bytes; with
    s dividing d and m even this is the textbook 4 + d / (2 s).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if s < 1:
        raise ValueError("s must be at least 1")
    # one point with one entry: its id, its code and its full-store row
    *_, (_, id_bytes), (_, code_bytes), (_, row_bytes) = sections(1, d, 1, s, spilled=False)
    per_point_pq = id_bytes + code_bytes
    return MemoryAccounting(
        per_point_pq=per_point_pq,
        per_point_full=row_bytes,
        soar_overhead_bytes=n * per_point_pq if spilled else 0,
        relative_increase=per_point_pq / (row_bytes + 2 * per_point_pq),
        approx_relative_increase=1.0 / (8 * s + 1),
    )


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
        seed: int,
        assignment: AssignmentTable,
    ):
        if offsets.shape != (codebook.c + 1,) or not offsets[-1] == ids.shape[0] == codes.shape[0]:
            raise ValueError("posting table does not match partition count")
        entries = (1 if assignment.spilled is None else 2) * assignment.n
        if assignment.n != full_store.n or ids.shape[0] != entries:
            raise ValueError("posting table does not match the assignment table")
        self.codebook = codebook
        self.pq_book = pq_book
        self.offsets = offsets
        self.ids = ids
        self.codes = codes
        self.full_store = full_store
        self.assignment = assignment
        self.seed = int(seed)

    @property
    def policy(self) -> str:
        return self.assignment.policy

    @property
    def lam(self) -> float:
        """soar's lambda; 0.0 for the other policies, as the header stores it."""
        return float(self.assignment.lam) if self.policy == "soar" else 0.0

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
    if policy == "soar":
        _check_soar_lam(lam)
    if s < 1:
        raise ValueError("s must be at least 1")
    if policy != "none" and c < 2:
        raise ValueError("spilled assignment needs at least 2 partitions")
    codebook = train_kmeans(X, c, max_iters=max_iters, seed=seed)
    if policy == "naive":
        assignment = assign_spilled_naive(X, codebook)
    elif policy == "soar":
        assignment = assign_spilled_soar(X, codebook, lam)
    else:
        assignment = assign_primary(X, codebook)
    memberships = [p for p in (assignment.primary, assignment.spilled) if p is not None]
    # one (n, d) float64 buffer holds each membership's residuals x - c in
    # turn, without a float64 copy of X; the primary ones also train the PQ
    residuals = codebook.centers64[assignment.primary]
    np.subtract(X.data, residuals, out=residuals)
    pq_book = train_pq(residuals, s=s, seed=seed)
    codes = [pq_encode_batch(residuals, pq_book)]
    for part in memberships[1:]:
        np.take(codebook.centers64, part, axis=0, out=residuals)
        np.subtract(X.data, residuals, out=residuals)
        codes.append(pq_encode_batch(residuals, pq_book))
    # the CSR table, each partition's primaries first, then its spills, ids
    # ascending in each run: the entries are already in (primary before
    # spill, id) order, which a stable sort by partition keeps
    parts = np.concatenate(memberships).astype(np.int64)
    order = np.argsort(parts, kind="stable")
    return SoarIndex(
        codebook=codebook,
        pq_book=pq_book,
        offsets=np.searchsorted(parts[order], np.arange(c + 1)).astype(np.int64),
        ids=np.tile(np.arange(X.n, dtype=np.uint32), len(memberships))[order],
        codes=np.concatenate(codes)[order],
        full_store=X,
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
    center_scores = (index.codebook.centers64 @ qv).astype(np.float32)
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
    approx = np.repeat(center_scores[scan].astype(np.float64), lengths) + score_codes(table, codes)
    spilled = index.ids.shape[0] != index.n  # an id can have two entries
    pool = 2 * rerank if spilled else rerank
    ids = index.ids[rows]
    # the best `pool` entries by (approximate score desc, id asc); under a
    # spill each id keeps its first, and best, entry (module docstring). The
    # candidates stay in that order for the exact scores: the float64
    # GEMV's result for a row can depend on its position.
    cand = ids[top_positions(approx, pool, ids)].astype(np.int64)
    if spilled:
        # sorted by id, an id's two entries sit side by side; drop the later
        by_id = np.argsort(cand)
        pairs = np.flatnonzero(cand[by_id[1:]] == cand[by_id[:-1]])
        keep = np.ones(cand.shape[0], dtype=bool)
        keep[np.maximum(by_id[pairs], by_id[pairs + 1])] = False
        cand = cand[keep]
    cand = cand[:rerank]
    exact = batch_inner_products(qv, np.take(index.full_store.data, cand, axis=0))
    top = top_positions(exact, params.k, cand)
    neighbors = list(map(Neighbor, cand[top].tolist(), exact[top].tolist()))
    return SearchResult(neighbors=neighbors, datapoints_scanned=scanned)


def serialize(index: SoarIndex) -> bytes:
    """Pack the index into the on-disk byte layout described above."""
    book = index.pq_book
    header = _HEADER.pack(_MAGIC, _VERSION, _POLICY_CODE[index.policy], 0, index.n, index.d,
                          index.c, book.s, book.m, book.code_bytes, index.lam, index.seed)
    primaries = np.bincount(index.assignment.primary, minlength=index.c)
    counts = np.stack([primaries, index.posting_sizes() - primaries], axis=1)
    # the sections in `sections` order, each joined straight from its array
    parts = [(index.codebook.centers, "<f4"), (book.centers, "<f4"), (counts, "<u4"),
             (index.ids, "<u4"), (index.codes, "u1"), (index.full_store.data, "<f4")]
    return b"".join([header] + [np.ascontiguousarray(arr, dtype) for arr, dtype in parts])


class _Cursor:
    def __init__(self, data):
        view = memoryview(data)  # sections are sliced without a copy
        # the index's arrays are views of these bytes, so a buffer the caller
        # can still write to is copied once
        self.data = view if view.readonly else memoryview(bytes(view))
        self.pos = 0

    def take(self, section: tuple[str, int]) -> memoryview:
        """The bytes of the next section, a (name, size) entry of `sections`,
        checking they exist."""
        name, count = section
        if self.pos + count > len(self.data):
            raise IndexFormatError(name, f"truncated: wanted {count} bytes, "
                                            f"{len(self.data) - self.pos} left")
        self.pos += count
        return self.data[self.pos - count : self.pos]


def deserialize(data) -> SoarIndex:
    """Parse bytes produced by serialize, validating each section.

    data is any buffer: bytes, a read-only mapping, or a writable buffer,
    which is copied first. The index's ids, codes and (when aligned, see
    the module docstring) full store are read-only views of that buffer,
    so the index keeps it alive.
    """
    cur = _Cursor(data)
    raw = cur.take(("header", HEADER_BYTES))
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
    if not (_valid_lam(lam) if policy == "soar" else lam == 0):
        raise IndexFormatError("header", f"lambda {lam!r} invalid for policy {policy!r}")
    layout = iter(sections(n, d, c, s, spilled=policy != "none")[1:])  # after the header

    def read_f32(shape: tuple, make):
        """make(array) from the next section, float32, shaped; a ValueError
        from make, which also rejects NaN and Inf, is reported as a format
        error in that section."""
        section = next(layout)
        arr = np.frombuffer(cur.take(section), dtype="<f4")
        try:
            return make(arr.reshape(shape))
        except ValueError as exc:
            raise IndexFormatError(section[0], str(exc)) from exc

    codebook = read_f32((c, d), Codebook)
    pq_book = read_f32((m, SUBSPACE_CENTERS, s), lambda arr: PQCodebook(arr, d=d))

    # The counts fix the lengths of the ids and codes, so they are checked first.
    counts = np.frombuffer(cur.take(next(layout)), dtype="<u4").reshape(c, 2)
    found = counts.sum(axis=0, dtype=np.int64).tolist()
    expected = [n, 0 if policy == "none" else n]
    if found != expected:
        raise IndexFormatError("posting lists", f"counts sum to {found[0]} primaries and {found[1]} "
                                                f"spills, expected {expected[0]} and {expected[1]}")
    offsets = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=1, dtype=np.int64), out=offsets[1:])
    # views, not copies: the index keeps its buffer or mapping alive
    ids = np.frombuffer(cur.take(next(layout)), dtype="<u4")
    codes = np.frombuffer(cur.take(next(layout)), dtype=np.uint8).reshape(len(ids), code_bytes)
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

    # Each id's partition, row 0 among the primary runs and row 1 among the
    # spill runs, in one scatter. A role's runs hold n ids in range, so an id
    # missing from its row means another one repeated.
    parts = np.full((1 if policy == "none" else 2, n), -1, dtype=np.int32)
    parts[runs % 2, ids] = runs // 2
    primary, spilled = parts[0], (parts[1] if len(parts) == 2 else None)
    for name, part in (("primary", primary), ("spill", spilled)):
        if part is not None and np.any(part < 0):
            raise IndexFormatError("posting lists", f"each id must have exactly one {name} entry")
    if spilled is not None and np.any(spilled == primary):
        raise IndexFormatError("posting lists", "an id's primary and spill share a partition")

    def store(arr: np.ndarray) -> Dataset:
        """The full store as a view, unless it starts off a 4-byte boundary
        (when E * code_bytes is not a multiple of 4): numpy would copy an
        unaligned array on every matrix product, so it is copied once here."""
        return Dataset._view(arr) if arr.flags.aligned else Dataset(arr)

    full_store = read_f32((n, d), store)
    if cur.pos != len(cur.data):
        raise IndexFormatError("full store", f"{len(cur.data) - cur.pos} trailing bytes")

    return SoarIndex(
        codebook=codebook,
        pq_book=pq_book,
        offsets=offsets,
        ids=ids,
        codes=codes,
        full_store=full_store,
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
    """Map the file read-only and deserialize it; the index's ids, codes
    and full store are views of the mapping (module docstring)."""
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size == 0:
            return deserialize(b"")  # mmap refuses an empty file; this fails as truncated
        return deserialize(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
