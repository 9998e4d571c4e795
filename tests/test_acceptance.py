"""The acceptance gate: ten numbered end-to-end criteria.

Each test records one PASS/FAIL line (printed in the terminal summary by
conftest) and asserts it. Thresholds and instance sizes are pinned on
purpose; loosening them is a behavior change, not a test fix.

The statistical criteria (5, 6, 7) run on a fixed 100k-point, 64-dim
Gaussian mixture: component means on a unit sphere inside a 16-dim latent
subspace (orthonormally embedded), half the components tight and half wide,
skewed component weights, mild ambient noise, held-out queries drawn across
components uniformly. The geometry matters for two reasons. Partition
centers sit inside the curved shell, so a point's nearest and second-nearest
residuals share an outward component and their query-angle cosines correlate
under naive spilling, which is the failure mode spilling is meant to fix.
And the tight components give an easy head while the wide overlapping ones
give a long tail of hard query-neighbor pairs, so the partitions-to-recall
distribution is heavy-tailed enough that a well-aimed second assignment
beats the doubled posting mass it costs (the 90th percentile of partitions
needed sits well above twice the 68th percentile).
"""

import time

import numpy as np
import pytest

from soar.core import Dataset, brute_force_mips, rank
from soar.evaluation import (
    datapoints_to_recall,
    diagnostics,
    ground_truth_ids,
    kmr_curve,
    lambda_sweep,
    mc_verify_lemma,
    mc_verify_theorem1,
)
from soar.index import SearchParams, build, search, serialize
from soar.index import memory_accounting
from soar.vq import assign_primary, assign_spilled_naive, assign_spilled_soar, train_kmeans

# the shared large instance (criteria 5-7)
N, NQ, D, C, K = 100_000, 1_000, 64, 250, 100
LATENT = 16
COMPONENTS = 128
SIGMA_TIGHT = 0.18
SIGMA_WIDE = 0.5
WIDE_FRACTION = 0.5
AMBIENT = 0.02
WEIGHT_CONCENTRATION = 0.5
DATA_SEED = 2024
BUILD_SEED = 11


def shell_mixture(n, nq, seed):
    """Gaussian mixture with unit-sphere component means in a latent
    subspace, mixed tight/wide component widths, Dirichlet-skewed point
    weights, and held-out queries spread uniformly across components."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((COMPONENTS, LATENT))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    widths = np.where(rng.random(COMPONENTS) < WIDE_FRACTION, SIGMA_WIDE, SIGMA_TIGHT)
    weights = rng.dirichlet(np.full(COMPONENTS, WEIGHT_CONCENTRATION))
    basis, _ = np.linalg.qr(rng.standard_normal((D, LATENT)))

    def sample(count, skewed):
        if skewed:
            labels = rng.choice(COMPONENTS, size=count, p=weights)
        else:
            labels = rng.integers(0, COMPONENTS, size=count)
        z = means[labels] + widths[labels, None] * rng.standard_normal((count, LATENT))
        return (z @ basis.T + AMBIENT * rng.standard_normal((count, D))).astype(np.float32)

    return Dataset(sample(n, True)), Dataset(sample(nq, False))


@pytest.fixture(scope="module")
def big():
    X, Q = shell_mixture(N, NQ, DATA_SEED)
    return X, Q


@pytest.fixture(scope="module")
def big_indices(big):
    X, _ = big
    return {
        policy: build(X, c=C, policy=policy, s=2, seed=BUILD_SEED, lam=1.0)
        for policy in ("none", "naive", "soar")
    }


@pytest.fixture(scope="module")
def small():
    rng = np.random.default_rng(417)
    X = Dataset(rng.standard_normal((10_000, 32)).astype(np.float32))
    Q = Dataset(rng.standard_normal((1_000, 32)).astype(np.float32))
    return X, Q


@pytest.fixture(scope="module")
def small_indices(small):
    X, _ = small
    return {
        policy: build(X, c=64, policy=policy, s=2, seed=5, lam=1.0)
        for policy in ("none", "naive", "soar")
    }


def check(record, number, passed, detail):
    record(number, passed, detail)
    assert passed, f"criterion-{number}: {detail}"


def test_criterion_1_weighted_loss_matches_closed_form(criterion_report):
    rng = np.random.default_rng(42)
    worst = 0.0
    started = time.perf_counter()
    for i in range(10):
        r = rng.standard_normal(32)
        cands = rng.standard_normal((2, 32))
        for rep in mc_verify_theorem1(r, cands, (0.0, 1.0, 2.0), 1_000_000, seed=1000 + i):
            worst = max(worst, rep.max_ratio_error)
    elapsed = time.perf_counter() - started
    ok = worst <= 0.02 and elapsed < 30.0
    check(
        criterion_report, 1, ok,
        f"spill-loss MC ratios, 10 instances x lambda {{0,1,2}} x 1e6 samples: "
        f"worst error {worst:.5f} (tol 0.02), {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_score_error_correlation_matches_cosine(criterion_report):
    rng = np.random.default_rng(43)
    worst = 0.0
    for i in range(10):
        r = rng.standard_normal(64)
        rp = rng.standard_normal(64)
        rep = mc_verify_lemma(r, rp, 1_000_000, seed=2000 + i)
        worst = max(worst, rep.abs_error)
    ok = worst < 0.005
    check(
        criterion_report, 2, ok,
        f"score-error correlation MC, 10 pairs x 1e6 samples: "
        f"worst |rho - cos| = {worst:.6f} (tol 0.005)",
    )


def test_criterion_3_lambda_zero_is_second_nearest(criterion_report, small):
    X, _ = small
    book = train_kmeans(X, 64, seed=5)
    primary = assign_primary(X, book)
    got = assign_spilled_soar(X, book, primary, lam=0.0)
    naive = assign_spilled_naive(X, book, primary)

    diffs = X.data.astype(np.float64)[:, None, :] - book.centers.astype(np.float64)[None, :, :]
    dists = (diffs**2).sum(axis=2)
    dists[np.arange(X.n), primary.primary] = np.inf
    oracle = dists.argmin(axis=1)

    same_as_oracle = int((got.spilled == oracle).sum())
    ok = same_as_oracle == X.n and np.array_equal(got.spilled, naive.spilled)
    check(
        criterion_report, 3, ok,
        f"lambda=0 spill == second-nearest on {X.n} points, c=64: "
        f"{same_as_oracle}/{X.n} match the oracle, naive path identical",
    )


def test_criterion_4_full_probe_search_is_exhaustive(criterion_report, small, small_indices):
    X, Q = small
    mismatches = 0
    checked = 0
    for policy, idx in small_indices.items():
        params = SearchParams(k=10, probes=idx.c, rerank=X.n)
        for qi in range(200):
            got = {nb.id for nb in search(idx, Q.data[qi], params).neighbors}
            want = {nb.id for nb in brute_force_mips(Q.data[qi], X, 10)}
            checked += 1
            mismatches += got != want
    ok = mismatches == 0
    check(
        criterion_report, 4, ok,
        f"probes=c rerank=n reproduces brute force top-10 id sets: "
        f"{checked - mismatches}/{checked} queries across all three policies",
    )


def test_criterion_5_soar_decorrelates_residual_angles(criterion_report, big, big_indices):
    X, Q = big
    p_naive = diagnostics(Q, big_indices["naive"], K).summary.pearson_cos
    p_soar = diagnostics(Q, big_indices["soar"], K).summary.pearson_cos
    ok = p_naive > 0 and p_soar <= 0.7 * p_naive
    check(
        criterion_report, 5, ok,
        f"pearson(cos primary, cos spilled) over {NQ}x{K} pairs: "
        f"naive {p_naive:.4f} vs soar {p_soar:.4f} "
        f"({(1 - p_soar / p_naive):.0%} lower; need >= 30%)",
    )


def test_criterion_6_scan_cost_to_reach_recall(criterion_report, big, big_indices):
    X, Q = big
    dp = {
        policy: datapoints_to_recall(kmr_curve(Q, idx, K), 0.90)
        for policy, idx in big_indices.items()
    }
    gain = dp["none"] / dp["soar"]
    ok = dp["soar"] <= dp["none"] and gain >= 1.05
    check(
        criterion_report, 6, ok,
        f"datapoints to recall@{K}=0.90: none {dp['none']:.0f}, "
        f"naive {dp['naive']:.0f}, soar {dp['soar']:.0f}; "
        f"gain over none {gain:.3f} (need >= 1.05)",
    )


def test_criterion_7_lambda_sweep_monotonicity(criterion_report, big, big_indices):
    X, _ = big
    idx = big_indices["none"]
    points = lambda_sweep(X, idx.codebook, idx.assignment, (0.0, 0.5, 1.0, 2.0, 4.0))
    norms = np.array([p.mean_spill_sq_norm for p in points])
    rhos = np.array([p.mean_rho for p in points])
    norm_tol = 0.01 * (norms.max() - norms.min())
    rho_tol = 0.01 * (rhos.max() - rhos.min())
    ok = bool(np.all(np.diff(norms) >= -norm_tol) and np.all(np.diff(rhos) <= rho_tol))
    check(
        criterion_report, 7, ok,
        f"lambda sweep over {[p.lam for p in points]}: spill norm "
        f"{norms.round(4).tolist()} non-decreasing, "
        f"rho {rhos.round(4).tolist()} non-increasing",
    )


def test_criterion_8_spill_memory_cost(criterion_report, small, small_indices):
    X, _ = small
    delta = len(serialize(small_indices["soar"])) - len(serialize(small_indices["none"]))
    want = X.n * (4 + X.d // (2 * 2))  # id bytes + one packed code per point
    acct = memory_accounting(n=1_000_000, d=100, s=2, spilled=True)
    off = abs(acct.relative_increase - 0.059)
    ok = delta == want and off < 0.005
    check(
        criterion_report, 8, ok,
        f"serialized delta soar-none = {delta} bytes (expected {want}, headers equal); "
        f"d=100 s=2 float32 relative increase {acct.relative_increase:.4f} "
        f"within 0.5pp of 5.9% (off by {off:.4f})",
    )


def test_criterion_9_probe_sweep_monotone_no_duplicates(criterion_report, small, small_indices):
    X, Q = small
    idx = small_indices["soar"]
    truth = ground_truth_ids(Q, X, 10)
    truth_sets = [set(map(int, row)) for row in truth]
    recalls = []
    dup_free = True
    for probes in (1, 2, 4, 8, 16, 32, 64):
        hits = 0
        for qi in range(Q.n):
            got = search(idx, Q.data[qi], SearchParams(k=10, probes=probes, rerank=X.n))
            ids = [nb.id for nb in got.neighbors]
            dup_free &= len(ids) == len(set(ids))
            hits += len(set(ids) & truth_sets[qi])
        recalls.append(hits / (10 * Q.n))
    ok = dup_free and all(b >= a for a, b in zip(recalls, recalls[1:]))
    check(
        criterion_report, 9, ok,
        f"recall@10 over probes 1..64 on {Q.n} queries: "
        f"{[round(r, 4) for r in recalls]} non-decreasing, no duplicate ids",
    )


def oracle_curve(Q, X, index, k):
    """Direct counting reimplementation of the partition-recall curve using
    core.rank over the codebook."""
    c = index.c
    centers = index.codebook.centers
    centers_set = Dataset(centers)
    truth = ground_truth_ids(Q, X, k)
    sizes = index.posting_sizes()
    kept_at = np.zeros(c, dtype=np.int64)
    x_sums = np.zeros(c, dtype=np.int64)
    for qi in range(Q.n):
        q = Q.data[qi]
        for v in truth[qi]:
            parts = [int(index.assignment.primary[v])]
            if index.assignment.spilled is not None:
                parts.append(int(index.assignment.spilled[v]))
            best = min(rank(q, centers[p], centers_set) for p in parts)
            kept_at[best - 1 :] += 1
        cs = (centers.astype(np.float64) @ q.astype(np.float64)).astype(np.float32)
        order = sorted(range(c), key=lambda p: (-cs[p], p))
        running = 0
        for t, p in enumerate(order):
            running += int(sizes[p])
            x_sums[t] += running
    return x_sums / Q.n, kept_at / (k * Q.n)


def test_criterion_10_curve_equals_rank_counting(criterion_report):
    rng = np.random.default_rng(91)
    X = Dataset(rng.standard_normal((1000, 16)).astype(np.float32))
    Q = Dataset(rng.standard_normal((50, 16)).astype(np.float32))
    exact = True
    for policy in ("none", "soar"):
        idx = build(X, c=10, policy=policy, s=2, seed=7, lam=1.0)
        curve = kmr_curve(Q, idx, k=10)
        want_x, want_r = oracle_curve(Q, X, idx, k=10)
        exact &= np.array_equal(curve.datapoints, want_x)
        exact &= np.array_equal(curve.recall, want_r)
    check(
        criterion_report, 10, exact,
        "curve on a 1000-point c=10 instance equals the rank-counting "
        "oracle bitwise for both an unspilled and a spilled index",
    )
