"""Quality metrics and statistical verification.

Two families live here. The measurement side: recall, the
kept-mips-recall curve (how much of the true top-k survives after scanning
the t best-ranked partitions, x-axis weighted by partition size), and
per-neighbor diagnostics of residual angles and score errors as numpy
columns. Both work from one (queries, c) matrix of partition ranks, each
row from its own GEMV. The verification side: Monte Carlo checks that the
spill objective and the score-correlation identity behave as the closed
forms say they should, with queries drawn uniformly from the unit sphere.

Monte Carlo runs are blocked: each fixed-size block gets its own seed
spawned from the master seed, and only float64 sums cross block
boundaries, so results depend on (seed, samples) alone and blocks can be
evaluated in any order or in parallel without changing the answer.
"""

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Neighbor, top_positions
from .vq import _check_soar_lam, assign_spilled_soar, soar_loss

__all__ = [
    "KmrCurve",
    "kmr_curve",
    "datapoints_to_recall",
    "recall_at_k",
    "ground_truth_ids",
    "pearson",
    "DiagnosticsSummary",
    "DiagnosticsResult",
    "diagnostics",
    "SweepPoint",
    "lambda_sweep",
    "TheoremReport",
    "mc_verify_theorem1",
    "LemmaReport",
    "mc_verify_lemma",
    "MIN_THEOREM_SAMPLES",
]

MIN_THEOREM_SAMPLES = 100_000
_BLOCK = 131_072  # Monte Carlo block size; fixed so results ignore parallelism
_GT_CHUNK = 64  # queries per ground-truth GEMM; bounds the (chunk, n) score block


# ---------------------------------------------------------------------------
# recall and ground truth


def recall_at_k(results: list, truth, k: int) -> float:
    """|results ∩ truth| / k. Short result lists just score what they have."""
    if k < 1:
        raise ValueError("k must be at least 1")
    truth_ids = {int(t.id) if isinstance(t, Neighbor) else int(t) for t in truth}
    if len(truth_ids) != k:
        raise ValueError(f"ground truth must contain exactly {k} distinct ids")
    result_ids = {int(r.id) if isinstance(r, Neighbor) else int(r) for r in results}
    if len(result_ids) != len(results):
        raise ValueError("results contain duplicate ids")
    return len(result_ids & truth_ids) / k


def ground_truth_ids(Q: Dataset, X: Dataset, k: int) -> np.ndarray:
    """(|Q|, k) int64 matrix of exact MIPS neighbors, row-equal to
    brute_force_mips on each query."""
    if not 1 <= k <= X.n:
        raise ValueError(f"k={k} outside [1, {X.n}]")
    if Q.d != X.d:
        raise ValueError(f"query dimension {Q.d} does not match dataset dimension {X.d}")
    out = np.empty((Q.n, k), dtype=np.int64)
    xt = X.data.astype(np.float64).T
    for lo in range(0, Q.n, _GT_CHUNK):
        hi = min(lo + _GT_CHUNK, Q.n)
        scores = (Q.data[lo:hi].astype(np.float64) @ xt).astype(np.float32)
        for i in range(hi - lo):
            out[lo + i] = top_positions(scores[i], k)
    return out


# ---------------------------------------------------------------------------
# the kept-mips-recall curve


@dataclass(frozen=True)
class KmrCurve:
    """Recall of true top-k neighbors vs datapoints covered by the t
    best-ranked partitions, averaged over queries. One point per t."""

    datapoints: np.ndarray  # mean cumulative posting size at each t, len c
    recall: np.ndarray  # fraction of (query, neighbor) pairs kept, len c
    k: int
    policy: str
    lam: float


def _center_ranks(rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """ranks[i, j] = number of partitions scoring >= partition j for query
    rows[i] (best is 1). One `centers @ q` GEMV per row, cast to float32 as
    search does: a single GEMM can differ in the last bit and reorder ties."""
    c = centers.shape[0]
    ranks = np.empty((rows.shape[0], c), dtype=np.int64)
    for i, q in enumerate(rows):
        scores = (centers @ q).astype(np.float32)
        ranks[i] = c - np.searchsorted(np.sort(scores), scores, side="left")
    return ranks


def _resolve_truth(Q: Dataset, X: Dataset, index, k: int, truth) -> np.ndarray:
    """The supplied (|Q|, k) truth matrix, checked by shape and id range, or
    the exact ground_truth_ids(Q, X, k) when none is supplied."""
    if truth is None:
        return ground_truth_ids(Q, X, k)
    truth = np.asarray(truth, dtype=np.int64)
    if truth.shape != (Q.n, k):
        raise ValueError(f"truth of shape {truth.shape} does not match ({Q.n}, {k})")
    if truth.min() < 0 or truth.max() >= index.n:
        raise ValueError(f"truth ids outside [0, {index.n})")
    return truth


def kmr_curve(Q: Dataset, index, k: int, truth=None) -> KmrCurve:
    """Sweep t = 1..c. A true neighbor is kept at t when the best-ranked of
    its partitions ranks within the top t.

    truth, a (|Q|, k) matrix of neighbor ids, defaults to the exact
    ground_truth_ids(Q, index.full_store, k); pass it in to score against a
    ground truth already at hand instead of recomputing it.
    """
    truth = _resolve_truth(Q, index.full_store, index, k, truth)
    c = index.c
    ranks = _center_ranks(Q.data.astype(np.float64), index.centers64)
    best = np.take_along_axis(ranks, index.assignment.primary[truth], axis=1)
    spill = index.assignment.spilled
    if spill is not None:
        best = np.minimum(best, np.take_along_axis(ranks, spill[truth], axis=1))
    hit_counts = np.bincount(best.ravel(), minlength=c + 1)  # [r]: pairs with best rank r
    kept = np.cumsum(hit_counts)[1:]  # pairs with best rank <= t, t = 1..c
    # each query scans partitions by rank, ties in partition-id order, as search does
    scan_order = np.argsort(ranks, axis=1, kind="stable")
    x_sums = np.cumsum(index.posting_sizes()[scan_order], axis=1).sum(axis=0)
    recall = kept / (k * Q.n)
    datapoints = x_sums / Q.n
    return KmrCurve(
        datapoints=datapoints, recall=recall, k=k, policy=index.policy, lam=index.lam
    )


def datapoints_to_recall(curve: KmrCurve, target: float) -> float:
    """Smallest datapoint count on the curve whose recall meets the target."""
    if not 0.0 < target <= 1.0:
        raise ValueError("target must be in (0, 1]")
    idx = np.flatnonzero(curve.recall >= target)
    if idx.size == 0:
        raise ValueError(f"curve never reaches recall {target}")  # cannot happen for target <= 1
    return float(curve.datapoints[idx[0]])


# ---------------------------------------------------------------------------
# residual diagnostics


@dataclass(frozen=True)
class DiagnosticsSummary:
    policy: str
    lam: float
    k: int
    num_records: int
    pearson_cos: float | None  # corr(cos_primary, cos_spilled); None without spill
    rank_bins: np.ndarray
    mean_score_err_primary: np.ndarray
    mean_rank_spilled: np.ndarray | None
    counts: np.ndarray


@dataclass(frozen=True)
class DiagnosticsResult:
    """One entry per (query, true neighbor) pair, query-major: query i owns
    entries i*k to (i+1)*k - 1. Angles use the unit-norm query; a zero
    residual gives cosine 0 and error 0. No spill: spilled columns are None."""

    neighbor_id: np.ndarray  # int64
    residual_norm: np.ndarray  # ||x - c|| for the primary center
    cos_primary: np.ndarray
    score_err_primary: np.ndarray  # <q, x - c>
    rank_primary: np.ndarray  # int64, rank of the primary partition for this query
    cos_spilled: np.ndarray | None
    score_err_spilled: np.ndarray | None
    rank_spilled: np.ndarray | None
    summary: DiagnosticsSummary


def pearson(a, b) -> float:
    """Sample correlation with degenerate-variance guards."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape or av.ndim != 1 or av.size < 2:
        raise ValueError("pearson needs two equal-length 1-D arrays of size >= 2")
    da = av - av.mean()
    db = bv - bv.mean()
    na = float(np.sqrt(da @ da))
    nb = float(np.sqrt(db @ db))
    if na == 0.0 and nb == 0.0:
        return 1.0 if np.array_equal(av, bv) else 0.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip((da @ db) / (na * nb), -1.0, 1.0))


def diagnostics(Q: Dataset, index, k: int, truth=None) -> DiagnosticsResult:
    """Angle/error columns for every (query, true top-k neighbor) pair.

    truth is handled as in kmr_curve: a (|Q|, k) matrix of neighbor ids,
    by default the exact ground_truth_ids(Q, index.full_store, k).
    """
    X = index.full_store
    truth = _resolve_truth(Q, X, index, k, truth)
    centers = index.centers64
    qv = Q.data.astype(np.float64)
    qnorms = np.linalg.norm(qv, axis=1)
    if np.any(qnorms == 0):
        raise ValueError("queries contains a zero-norm row")
    qn = qv / qnorms[:, None]
    ranks = _center_ranks(qn, centers)

    def columns(table):
        """Per pair: residual norm, error <q, r>, cos(q, r), rank of table's partition."""
        parts = table[truth]
        res = centers[parts]
        np.subtract(X.data[truth], res, out=res)  # x - c in float64, no float64 copy of x
        errs = np.matmul(res, qn[:, :, None])[:, :, 0]  # one (k, d) GEMV per query
        # np.linalg.norm's own arithmetic, squaring in place instead of into a copy
        norms = np.sqrt(np.add.reduce(np.multiply(res, res, out=res), axis=2))
        cosv = np.divide(errs, norms, out=np.zeros_like(errs), where=norms > 0)
        part_ranks = np.take_along_axis(ranks, parts, axis=1)
        return norms.ravel(), errs.ravel(), cosv.ravel(), part_ranks.ravel()

    norms, errs, cosv, rank_primary = columns(index.assignment.primary)
    bins, counts = np.unique(rank_primary, return_counts=True)
    mean_err = np.array([errs[rank_primary == b].mean() for b in bins])
    errs2 = cosv2 = rank_spilled = pear = mean_rank_spilled = None
    if index.assignment.spilled is not None:
        _, errs2, cosv2, rank_spilled = columns(index.assignment.spilled)
        pear = pearson(cosv, cosv2)
        rank_s = rank_spilled.astype(np.float64)
        mean_rank_spilled = np.array([rank_s[rank_primary == b].mean() for b in bins])
    summary = DiagnosticsSummary(
        policy=index.policy,
        lam=index.lam,
        k=k,
        num_records=truth.size,
        pearson_cos=pear,
        rank_bins=bins,
        mean_score_err_primary=mean_err,
        mean_rank_spilled=mean_rank_spilled,
        counts=counts,
    )
    return DiagnosticsResult(
        neighbor_id=truth.flatten(),
        residual_norm=norms,
        cos_primary=cosv,
        score_err_primary=errs,
        rank_primary=rank_primary,
        cos_spilled=cosv2,
        score_err_spilled=errs2,
        rank_spilled=rank_spilled,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# lambda sweep


@dataclass(frozen=True)
class SweepPoint:
    lam: float
    mean_spill_sq_norm: float  # mean ||r'||^2 over datapoints
    mean_rho: float  # mean cos(r, r'), the closed-form score correlation


def lambda_sweep(X: Dataset, codebook, primary, lambdas=(0.0, 0.5, 1.0, 2.0, 4.0)):
    """Re-run the spilled assignment per lambda over a fixed codebook and
    primary table, reporting spill residual mass and the closed-form
    correlation between primary and spilled score errors.

    The correlation needs no query sample: for unit-sphere queries it
    equals cos(r, r') exactly, so it is computed per datapoint from the
    residuals.
    """
    lams = [float(v) for v in lambdas]
    if len(lams) < 1 or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambdas must be strictly ascending")
    data = X.data.astype(np.float64)
    centers = codebook.centers.astype(np.float64)
    res = data - centers[primary.primary]
    res_norms = np.linalg.norm(res, axis=1)
    points = []
    for lam in lams:
        table = assign_spilled_soar(X, codebook, primary, lam)
        res2 = data - centers[table.spilled]
        res2_norms = np.linalg.norm(res2, axis=1)
        denom = res_norms * res2_norms
        rho = np.divide((res * res2).sum(axis=1), denom, out=np.zeros(X.n), where=denom > 0)
        points.append(
            SweepPoint(
                lam=lam,
                mean_spill_sq_norm=float((res2_norms**2).mean()),
                mean_rho=float(rho.mean()),
            )
        )
    return points


# ---------------------------------------------------------------------------
# Monte Carlo verification


def _sphere_blocks(d: int, samples: int, seed):
    """Yield blocks of unit-norm float32 rows with per-block seeds spawned
    from the master seed, so the stream is reproducible and
    order-independent. Per-sample float32 noise is orders of magnitude
    below the Monte Carlo noise floor; cross-block sums stay float64."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n_blocks = (samples + _BLOCK - 1) // _BLOCK
    children = ss.spawn(n_blocks)
    left = samples
    for child in children:
        b = min(_BLOCK, left)
        left -= b
        g = np.random.default_rng(child).standard_normal((b, d), dtype=np.float32)
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0] = 1.0  # vanishing probability, but stay finite
        yield g / norms[:, None]


@dataclass(frozen=True)
class TheoremReport:
    lam: float
    samples: int
    empirical: np.ndarray  # mean weighted squared spill error per candidate
    closed_form: np.ndarray  # ||r'||^2 + lam * ||proj_r r'||^2 per candidate
    max_ratio_error: float  # worst relative mismatch of candidate ratios


def mc_verify_theorem1(r, r_primes, lams, samples: int, seed=0) -> list[TheoremReport]:
    """Estimate E[|cos(q, r)|^lam * <q, r'>^2] over unit-sphere queries for
    each spill candidate r' and each lambda, and compare candidate ratios
    against the closed form; one report per lambda, in order. Ratios cancel
    the dimension-dependent constant.

    Every lambda is estimated from the same queries: each block is drawn
    and its squared projections formed once, then added into every lambda's
    float64 sums in block order, so each report equals a run with the same
    seed and that one lambda."""
    lams = [float(lam) for lam in lams]
    if not lams:
        raise ValueError("need at least one lambda")
    for lam in lams:
        _check_soar_lam(lam)
    if samples < MIN_THEOREM_SAMPLES:
        raise ValueError(f"need at least {MIN_THEOREM_SAMPLES} samples, got {samples}")
    rv = np.asarray(r, dtype=np.float64)
    if rv.ndim != 1 or rv.shape[0] < 2:
        raise ValueError("r must be a 1-D vector with d >= 2")
    rnorm = np.linalg.norm(rv)
    if rnorm == 0:
        raise ValueError("r must be nonzero")
    cands = np.asarray(r_primes, dtype=np.float64)
    if cands.ndim == 1:
        cands = cands[None, :]
    if cands.shape[0] < 2:
        raise ValueError("need at least two candidates to compare ratios")
    if cands.shape[1] != rv.shape[0]:
        raise ValueError("candidate dimension does not match r")
    if np.any(np.linalg.norm(cands, axis=1) == 0):
        raise ValueError("candidates must be nonzero")
    rhat = (rv / rnorm).astype(np.float32)
    cands32 = cands.astype(np.float32)
    sums = np.zeros((len(lams), cands.shape[0]), dtype=np.float64)
    for block in _sphere_blocks(rv.shape[0], samples, seed):
        proj = block @ cands32.T
        proj *= proj
        align = None
        for k, lam in enumerate(lams):
            if lam == 0.0:
                sums[k] += proj.sum(axis=0, dtype=np.float64)
                continue
            if align is None:
                align = np.abs(block @ rhat)
            sums[k] += (align ** np.float32(lam) @ proj).astype(np.float64)
    return [
        _theorem_report(lam, samples, total / samples, cands, rv) for total, lam in zip(sums, lams)
    ]


def _theorem_report(lam: float, samples: int, empirical: np.ndarray, cands, rv) -> TheoremReport:
    closed = np.array([soar_loss(rp, rv, lam) for rp in cands])
    worst = 0.0
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            ratio = (empirical[i] / empirical[j]) / (closed[i] / closed[j])
            worst = max(worst, abs(ratio - 1.0))
    return TheoremReport(
        lam=lam,
        samples=samples,
        empirical=empirical,
        closed_form=closed,
        max_ratio_error=worst,
    )


@dataclass(frozen=True)
class LemmaReport:
    samples: int
    empirical_rho: float  # sample Pearson of (<q,r>, <q,r'>)
    closed_form: float  # cos(r, r')

    @property
    def abs_error(self) -> float:
        return abs(self.empirical_rho - self.closed_form)


def mc_verify_lemma(r, r_prime, samples: int, seed=0) -> LemmaReport:
    """Check that primary and spilled score errors correlate exactly like
    the cosine between the residuals, for unit-sphere queries."""
    rv = np.asarray(r, dtype=np.float64)
    rp = np.asarray(r_prime, dtype=np.float64)
    if rv.shape != rp.shape or rv.ndim != 1 or rv.shape[0] < 2:
        raise ValueError("r and r' must be equal-length 1-D vectors with d >= 2")
    if np.linalg.norm(rv) == 0 or np.linalg.norm(rp) == 0:
        raise ValueError("zero-norm input")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    rv32 = rv.astype(np.float32)
    rp32 = rp.astype(np.float32)
    sa = sb = saa = sbb = sab = 0.0
    for block in _sphere_blocks(rv.shape[0], samples, seed):
        a = (block @ rv32).astype(np.float64)
        b = (block @ rp32).astype(np.float64)
        sa += a.sum()
        sb += b.sum()
        saa += a @ a
        sbb += b @ b
        sab += a @ b
    n = float(samples)
    cov = sab - sa * sb / n
    var_a = saa - sa * sa / n
    var_b = sbb - sb * sb / n
    rho = cov / np.sqrt(var_a * var_b)
    closed = float(rv @ rp / (np.linalg.norm(rv) * np.linalg.norm(rp)))
    return LemmaReport(samples=samples, empirical_rho=float(rho), closed_form=closed)
