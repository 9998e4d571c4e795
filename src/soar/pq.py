"""Product quantization of residuals: 16 centers per subspace, 4-bit codes.

Vectors are split into m = ceil(d / s) subspaces of s dimensions (the tail
zero-padded when s does not divide d). Each subspace gets its own 16-center
codebook trained with k-means, and a code stores one nibble per subspace,
packed two per byte. Scoring goes through a per-query lookup table, so the
approximate score of a code is the inner product of the query with the
decoded vector, up to float64 rounding.

The m subspaces are independent: each trains from its own SeedSequence
child on its own column slice, and each encodes into its own code column,
in blocks of _ENCODE_ROWS rows. Training and encoding run the subspaces
through core.ordered_map, on up to two threads with the caller as one of
them, and the codebooks and codes are the same bits at every CPU count.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ordered_map
from .vq import _with_centers64, lloyd_kmeans

__all__ = [
    "SUBSPACE_CENTERS",
    "PQCodebook",
    "train_pq",
    "pq_encode_batch",
    "pq_decode",
    "scoring_table",
    "score_codes",
    "unpack_codes",
]

SUBSPACE_CENTERS = 16  # 4-bit codes, two per byte
_ENCODE_ROWS = 4096  # rows per block of the encode's (rows, 16, s) differences


@dataclass(frozen=True)
class PQCodebook:
    """Per-subspace centers, shape (m, 16, s) float32, and their float64
    cast. d is pre-padding."""

    centers: np.ndarray
    d: int
    centers64: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.centers, dtype=np.float32)
        if arr.ndim != 3 or arr.shape[1] != SUBSPACE_CENTERS:
            raise ValueError(f"centers must have shape (m, {SUBSPACE_CENTERS}, s), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("centers contain NaN or Inf")
        if not 1 <= self.d <= arr.shape[0] * arr.shape[2]:
            raise ValueError(f"d={self.d} inconsistent with centers of shape {arr.shape}")
        _with_centers64(self, arr)

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def s(self) -> int:
        return self.centers.shape[2]

    @property
    def padded_d(self) -> int:
        return self.m * self.s

    @property
    def code_bytes(self) -> int:
        return (self.m + 1) // 2


def _pad_rows(rows: np.ndarray, padded_d: int) -> np.ndarray:
    if rows.shape[1] == padded_d:
        return rows
    out = np.zeros((rows.shape[0], padded_d), dtype=rows.dtype)
    out[:, : rows.shape[1]] = rows
    return out


def train_pq(residuals, s: int, seed: int = 0) -> PQCodebook:
    """Train one 16-center codebook per subspace on the given residuals,
    25 Lloyd iterations at most.

    Degenerate subspaces (fewer than 16 distinct subvectors, e.g. all-zero
    residuals) are allowed and simply leave duplicate centers behind.
    """
    rows = np.asarray(residuals, dtype=np.float64)  # read only, so float64 input is not copied
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError(f"residuals must be a non-empty 2-D array, got shape {rows.shape}")
    d = rows.shape[1]
    if s < 1:
        raise ValueError("s must be at least 1")
    m = math.ceil(d / s)
    rows = _pad_rows(rows, m * s)
    seeds = np.random.SeedSequence(seed).spawn(m)
    k = min(SUBSPACE_CENTERS, rows.shape[0])

    def train_subspace(j: int) -> np.ndarray:
        sub = rows[:, j * s : (j + 1) * s]
        return lloyd_kmeans(sub, k, rng=np.random.default_rng(seeds[j]))

    centers = np.empty((m, SUBSPACE_CENTERS, s), dtype=np.float32)
    for j, trained in enumerate(ordered_map(train_subspace, range(m))):
        centers[j, :k] = trained
        if k < SUBSPACE_CENTERS:
            centers[j, k:] = trained[0]  # fewer points than centers: repeat
    return PQCodebook(centers=centers, d=d)


def _nearest_codes(rows: np.ndarray, book: PQCodebook) -> np.ndarray:
    """(n, m) uint8 matrix of per-subspace nearest-center indices."""
    rows = _pad_rows(np.asarray(rows, dtype=np.float64), book.padded_d)
    n, s = rows.shape[0], book.s
    codes = np.empty((n, book.m), dtype=np.uint8)
    centers = book.centers64

    def encode_subspace(j: int) -> None:
        for lo in range(0, n, _ENCODE_ROWS):
            sub = rows[lo : lo + _ENCODE_ROWS, j * s : (j + 1) * s]
            diff = sub[:, None, :] - centers[j][None, :, :]
            d2 = (diff * diff).sum(axis=2)
            codes[lo : lo + _ENCODE_ROWS, j] = d2.argmin(axis=1)  # ties take the lowest index

    ordered_map(encode_subspace, range(book.m))  # each subspace writes its own column
    return codes


def _pack(codes: np.ndarray) -> np.ndarray:
    n, m = codes.shape
    if m % 2:
        codes = np.concatenate([codes, np.zeros((n, 1), dtype=np.uint8)], axis=1)
    return (codes[:, 0::2] | (codes[:, 1::2] << 4)).astype(np.uint8)


def unpack_codes(packed: np.ndarray, m: int) -> np.ndarray:
    """Inverse of the nibble packing: (n, code_bytes) -> (n, m)."""
    packed = np.asarray(packed, dtype=np.uint8)
    n = packed.shape[0]
    out = np.empty((n, packed.shape[1] * 2), dtype=np.uint8)
    out[:, 0::2] = packed & 0x0F
    out[:, 1::2] = packed >> 4
    return out[:, :m]


def pq_encode_batch(rows, book: PQCodebook) -> np.ndarray:
    """Encode many vectors at once; returns (n, code_bytes) packed uint8."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != book.d:
        raise ValueError(f"rows of shape {rows.shape} do not match codebook d={book.d}")
    return _pack(_nearest_codes(rows, book))


def pq_decode(code, book: PQCodebook) -> np.ndarray:
    """Reconstruct the (d,) float32 vector a code stands for."""
    nibbles = unpack_codes(np.asarray(code, dtype=np.uint8)[None, :], book.m)[0]
    parts = book.centers[np.arange(book.m), nibbles]
    return parts.reshape(-1)[: book.d].astype(np.float32)


def scoring_table(q, book: PQCodebook) -> np.ndarray:
    """(m, 16) float64 table of <q_subspace, center> partial scores."""
    qv = np.asarray(q, dtype=np.float64)
    if qv.ndim != 1 or qv.shape[0] != book.d:
        raise ValueError(f"query of shape {qv.shape} does not match codebook d={book.d}")
    qpad = _pad_rows(qv[None, :], book.padded_d)[0]
    qsub = qpad.reshape(book.m, book.s)
    return np.einsum("mks,ms->mk", book.centers64, qsub)


def score_codes(table: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Lookup-table scores of a block of packed codes, for an (m, 16) table.

    Each code byte is looked up once, in a per-call table that holds, for
    every byte position and byte value v = 16 * high + low, the float64 sum
    of its low and its high nibble's partial score (the pad nibble of odd m
    scores 0). The block is transposed once, and a row's entries are added
    column by column, byte by byte from the left.
    """
    m, code_bytes = table.shape[0], packed.shape[1]
    high = np.zeros((code_bytes, SUBSPACE_CENTERS))
    high[: m // 2] = table[1::2]
    byte = (table[0::2][:, None, :] + high[:, :, None]).reshape(code_bytes, 256)
    columns = np.ascontiguousarray(packed.T)
    total = byte[0].take(columns[0])
    for j in range(1, code_bytes):
        total += byte[j].take(columns[j])
    return total
