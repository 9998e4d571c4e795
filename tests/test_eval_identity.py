"""Evaluation against a frozen reference.

The reference functions below are the original kmr_curve and diagnostics,
kept verbatim apart from their names: they loop over queries and build one
record object per (query, neighbor) pair. The library ranks every query's
partitions into one matrix and returns diagnostics as numpy columns; every
column, summary field and curve point must stay the same, bit for bit,
because criteria 5 and 6 and the CLI's CSVs are computed from them.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from soar.core import Dataset
from soar.evaluation import (
    DiagnosticsSummary,
    KmrCurve,
    _resolve_truth,
    diagnostics,
    kmr_curve,
    pearson,
)
from soar.index import SoarIndex, build
from soar.vq import Codebook

# ---------------------------------------------------------------------------
# reference evaluation, verbatim


def _partition_ranks(center_scores: np.ndarray) -> np.ndarray:
    """rank[j] = number of partitions scoring >= partition j (best is 1)."""
    sorted_scores = np.sort(center_scores)
    return center_scores.shape[0] - np.searchsorted(sorted_scores, center_scores, side="left")


def _unit_rows(rows: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise ValueError(f"{what} contains a zero-norm row")
    return rows / norms[:, None]


def reference_kmr_curve(Q: Dataset, X: Dataset, index, k: int, truth=None) -> KmrCurve:
    """Sweep t = 1..c. A true neighbor is kept at t when the best-ranked of
    its partitions ranks within the top t.

    truth, a (|Q|, k) matrix of neighbor ids, defaults to the exact
    ground_truth_ids(Q, X, k); pass it in to score against a ground truth
    already at hand instead of recomputing it.
    """
    truth = _resolve_truth(Q, index, k, truth)
    c = index.c
    centers = index.codebook.centers.astype(np.float64)
    sizes = index.posting_sizes()
    prim = index.assignment.primary
    spill = index.assignment.spilled
    part_ids = np.arange(c)
    hit_counts = np.zeros(c + 1, dtype=np.int64)  # hit_counts[r]: pairs with best rank r
    x_sums = np.zeros(c, dtype=np.int64)
    for qi in range(Q.n):
        cs = (centers @ Q.data[qi].astype(np.float64)).astype(np.float32)
        ranks = _partition_ranks(cs)
        ids = truth[qi]
        best = ranks[prim[ids]]
        if spill is not None:
            best = np.minimum(best, ranks[spill[ids]])
        hit_counts += np.bincount(best, minlength=c + 1)
        scan_order = np.lexsort((part_ids, -cs))
        x_sums += np.cumsum(sizes[scan_order])
    kept = np.cumsum(hit_counts)[1:]  # pairs with best rank <= t, t = 1..c
    recall = kept / (k * Q.n)
    datapoints = x_sums / Q.n
    return KmrCurve(
        datapoints=datapoints, recall=recall, k=k, policy=index.policy, lam=index.lam
    )


@dataclass(frozen=True)
class ReferenceRecord:
    """One (query, true neighbor) observation. Angles use the unit-norm
    query; a zero residual contributes cosine 0 by convention."""

    query_id: int
    neighbor_id: int
    residual_norm: float
    cos_primary: float
    score_err_primary: float
    rank_primary: int
    cos_spilled: float | None = None
    score_err_spilled: float | None = None
    rank_spilled: int | None = None


@dataclass(frozen=True)
class ReferenceResult:
    records: list[ReferenceRecord]
    summary: DiagnosticsSummary


def reference_diagnostics(Q: Dataset, X: Dataset, index, k: int, truth=None) -> ReferenceResult:
    """Angle/error records for every (query, true top-k neighbor) pair.

    truth is handled as in kmr_curve: a (|Q|, k) matrix of neighbor ids,
    by default the exact ground_truth_ids(Q, X, k).
    """
    truth = _resolve_truth(Q, index, k, truth)
    centers = index.codebook.centers.astype(np.float64)
    prim = index.assignment.primary
    spill = index.assignment.spilled
    data = X.data.astype(np.float64)
    qn = _unit_rows(Q.data.astype(np.float64), "queries")
    records: list[ReferenceRecord] = []

    def residual_stats(q, ids, parts):
        res = data[ids] - centers[parts]
        norms = np.linalg.norm(res, axis=1)
        errs = res @ q
        cosv = np.divide(errs, norms, out=np.zeros_like(errs), where=norms > 0)
        return res, norms, errs, cosv

    for qi in range(Q.n):
        q = qn[qi]
        cs = (centers @ q).astype(np.float32)
        ranks = _partition_ranks(cs)
        ids = truth[qi]
        _, norms, errs, cosv = residual_stats(q, ids, prim[ids])
        if spill is None:
            for j, v in enumerate(ids):
                records.append(
                    ReferenceRecord(
                        query_id=qi,
                        neighbor_id=int(v),
                        residual_norm=float(norms[j]),
                        cos_primary=float(cosv[j]),
                        score_err_primary=float(errs[j]),
                        rank_primary=int(ranks[prim[v]]),
                    )
                )
        else:
            _, _, errs2, cosv2 = residual_stats(q, ids, spill[ids])
            for j, v in enumerate(ids):
                records.append(
                    ReferenceRecord(
                        query_id=qi,
                        neighbor_id=int(v),
                        residual_norm=float(norms[j]),
                        cos_primary=float(cosv[j]),
                        score_err_primary=float(errs[j]),
                        rank_primary=int(ranks[prim[v]]),
                        cos_spilled=float(cosv2[j]),
                        score_err_spilled=float(errs2[j]),
                        rank_spilled=int(ranks[spill[v]]),
                    )
                )

    rank_primary = np.array([r.rank_primary for r in records], dtype=np.int64)
    score_err = np.array([r.score_err_primary for r in records], dtype=np.float64)
    bins = np.unique(rank_primary)
    counts = np.array([(rank_primary == b).sum() for b in bins], dtype=np.int64)
    mean_err = np.array([score_err[rank_primary == b].mean() for b in bins])
    if spill is None:
        pear = None
        mean_rank_spilled = None
    else:
        cos_p = np.array([r.cos_primary for r in records])
        cos_s = np.array([r.cos_spilled for r in records])
        pear = pearson(cos_p, cos_s)
        rank_s = np.array([r.rank_spilled for r in records], dtype=np.float64)
        mean_rank_spilled = np.array([rank_s[rank_primary == b].mean() for b in bins])
    summary = DiagnosticsSummary(
        policy=index.policy,
        lam=index.lam,
        k=k,
        num_records=len(records),
        pearson_cos=pear,
        rank_bins=bins,
        mean_score_err_primary=mean_err,
        mean_rank_spilled=mean_rank_spilled,
        counts=counts,
    )
    return ReferenceResult(records=records, summary=summary)


# ---------------------------------------------------------------------------
# kmr_curve and diagnostics == reference


def _mixture(n, d, seed, clusters=12, nq=40):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((clusters, d)) * 2.0
    X = means[rng.integers(clusters, size=n)] + rng.standard_normal((n, d))
    Q = means[rng.integers(clusters, size=nq)] + rng.standard_normal((nq, d))
    return X.astype(np.float32), Q.astype(np.float32)


def _zero_residuals():
    # test_eval's instance: 30 copies of one row, alone in their partition,
    # so their residuals are exactly zero
    rows = np.zeros((40, 2), dtype=np.float32)
    rows[:30] = [10.0, 0.0]
    rows[30:] = 0.1 * np.random.default_rng(9).standard_normal((10, 2))
    return rows, np.array([[1.0, 0.0]], dtype=np.float32)


def _duplicates():
    # 5 distinct rows x 40 copies at c=12: duplicate centers tie the ranks,
    # and tied partitions differ in size, so the scan order's tiebreak shows
    rng = np.random.default_rng(77)
    X = np.repeat(rng.standard_normal((5, 8)), 40, axis=0).astype(np.float32)
    return X, rng.standard_normal((20, 8)).astype(np.float32)


def _near_ties():
    # Hand-made centers whose float32 scores hang on the last bit of the
    # float64 sum. Against the all-ones query, center j > 0 sums to 1 + 2^-24
    # (a float32 rounding midpoint) plus terms below one float64 ulp, so its
    # float32 score is 1 or the next float32 up depending on summation order,
    # and center 0 scores exactly 1; the other queries flip signs at random.
    # A GEMM in place of the per-query GEMV sums in another order and changes
    # the ties, and with them the ranks.
    rng = np.random.default_rng(5)
    d, c = 16, 9
    centers = np.zeros((c, d), dtype=np.float32)
    centers[0, 0] = 1.0
    for j in range(1, c):
        pos = rng.permutation(d)
        centers[j, pos[0]] = 1.0
        centers[j, pos[1]] = 2.0**-24
        centers[j, pos[2:6]] = rng.choice([-1, 1], 4) * rng.uniform(0.2, 0.9, 4) * 2.0**-52
    Q = np.where(rng.random((8, d)) < 0.2, -1.0, 1.0).astype(np.float32)
    Q[0] = 1.0
    X, _ = _mixture(900, d, seed=6)
    return X, Q, c, (10, 100), centers


DATA = {
    # name: (X, Q, c, ks, centers to swap in after the build, or None)
    "mixture": (*_mixture(1500, 12, seed=1), 16, (1, 10), None),
    "zero-residuals": (*_zero_residuals(), 2, (10,), None),
    "duplicates": (*_duplicates(), 12, (10, 50), None),
    "near-ties": _near_ties(),
}


def _with_centers(index, centers):
    """index with its codebook replaced; postings and assignment kept."""
    return SoarIndex(
        Codebook(centers), index.pq_book, index.offsets, index.ids, index.codes,
        index.full_store, index.seed, assignment=index.assignment,
    )


@pytest.fixture(scope="module", params=sorted(DATA))
def dataset(request):
    X, Q, c, ks, centers = DATA[request.param]
    X = Dataset(X)
    built = {
        policy: build(X, c=c, policy=policy, s=2, seed=3, lam=1.0)
        for policy in ("none", "naive", "soar")
    }
    if centers is not None:
        built = {policy: _with_centers(index, centers) for policy, index in built.items()}
    return X, Dataset(Q), built, ks


def _bits_equal(got, want, dtype):
    want = np.asarray(want, dtype=dtype)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_same_curve(Q, X, index, k, truth=None):
    got = kmr_curve(Q, index, k, truth=truth)
    want = reference_kmr_curve(Q, X, index, k, truth=truth)
    assert np.array_equal(got.datapoints, want.datapoints)
    assert np.array_equal(got.recall, want.recall)
    assert _bits_equal(got.datapoints, want.datapoints, np.float64)
    assert _bits_equal(got.recall, want.recall, np.float64)
    assert (got.k, got.policy, got.lam) == (want.k, want.policy, want.lam)


def _assert_same_diagnostics(Q, X, index, k, truth=None):
    got = diagnostics(Q, index, k, truth=truth)
    want = reference_diagnostics(Q, X, index, k, truth=truth)
    records = want.records
    # the columns run query-major, as the records do
    assert [r.query_id for r in records] == np.repeat(np.arange(Q.n), k).tolist()
    assert _bits_equal(got.neighbor_id, [r.neighbor_id for r in records], np.int64)
    assert _bits_equal(got.rank_primary, [r.rank_primary for r in records], np.int64)
    for name in ("residual_norm", "cos_primary", "score_err_primary"):
        assert _bits_equal(getattr(got, name), [getattr(r, name) for r in records], np.float64)
    if index.assignment.spilled is None:
        assert got.cos_spilled is got.score_err_spilled is got.rank_spilled is None
    else:
        assert _bits_equal(got.rank_spilled, [r.rank_spilled for r in records], np.int64)
        for name in ("cos_spilled", "score_err_spilled"):
            assert _bits_equal(getattr(got, name), [getattr(r, name) for r in records], np.float64)

    g, w = got.summary, want.summary
    assert (g.policy, g.lam, g.k, g.num_records) == (w.policy, w.lam, w.k, w.num_records)
    assert g.pearson_cos == w.pearson_cos
    assert (g.pearson_cos is None) == (w.pearson_cos is None)
    assert _bits_equal(g.rank_bins, w.rank_bins, w.rank_bins.dtype)
    assert _bits_equal(g.counts, w.counts, np.int64)
    assert _bits_equal(g.mean_score_err_primary, w.mean_score_err_primary, np.float64)
    if w.mean_rank_spilled is None:
        assert g.mean_rank_spilled is None
    else:
        assert _bits_equal(g.mean_rank_spilled, w.mean_rank_spilled, np.float64)


def test_kmr_curve_matches_reference(dataset):
    X, Q, built, ks = dataset
    for index in built.values():
        for k in ks:
            _assert_same_curve(Q, X, index, k)


def test_diagnostics_match_reference(dataset):
    X, Q, built, ks = dataset
    for index in built.values():
        for k in ks:
            _assert_same_diagnostics(Q, X, index, k)


def test_supplied_truth_matches_reference(dataset):
    # random ids, repeats within a row included
    X, Q, built, ks = dataset
    truth = np.random.default_rng(5).integers(X.n, size=(Q.n, ks[-1]))
    for index in built.values():
        _assert_same_curve(Q, X, index, ks[-1], truth=truth)
        _assert_same_diagnostics(Q, X, index, ks[-1], truth=truth)


def test_duplicates_tie_partitions_of_different_sizes():
    X, Q, c, _, _ = DATA["duplicates"]
    index = build(Dataset(X), c=c, policy="none", s=2, seed=3, lam=1.0)
    centers = index.codebook.centers.astype(np.float64)
    sizes = index.posting_sizes()
    tied = 0
    for q in Q.astype(np.float64):
        ranks = _partition_ranks((centers @ q).astype(np.float32))
        tied += sum(np.unique(sizes[ranks == r]).size > 1 for r in np.unique(ranks))
    assert tied > 0
