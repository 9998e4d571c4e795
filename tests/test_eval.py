import dataclasses

import numpy as np
import pytest

import soar.evaluation
from soar.core import Dataset, Neighbor, rank
from soar.evaluation import (
    MIN_THEOREM_SAMPLES,
    datapoints_to_recall,
    diagnostics,
    ground_truth_ids,
    kmr_curve,
    lambda_sweep,
    mc_verify_lemma,
    mc_verify_theorem1,
    pearson,
    recall_at_k,
)
from soar.index import build, deserialize, serialize
from soar.vq import assign_spilled_naive


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(331)
    X = Dataset(rng.standard_normal((1000, 8)).astype(np.float32))
    Q = Dataset(rng.standard_normal((20, 8)).astype(np.float32))
    return X, Q


class TestRecallAtK:
    def test_perfect_and_partial(self):
        assert recall_at_k([1, 2, 3], [1, 2, 3], 3) == 1.0
        assert recall_at_k([1, 9, 8], [1, 2, 3], 3) == pytest.approx(1 / 3)
        assert recall_at_k([], [1, 2, 3], 3) == 0.0

    def test_accepts_neighbors(self):
        res = [Neighbor(id=4, score=0.5), Neighbor(id=1, score=0.2)]
        assert recall_at_k(res, [Neighbor(id=1, score=0.9), Neighbor(id=7, score=0.1)], 2) == 0.5

    def test_wrong_truth_size(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [1, 2], 3)

    def test_duplicate_results(self):
        with pytest.raises(ValueError):
            recall_at_k([1, 1], [1, 2], 2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [1], 0)


class TestGroundTruth:
    def test_matches_brute_force(self, instance):
        from soar.core import brute_force_mips

        X, Q = instance
        mat = ground_truth_ids(Q, X, 7)
        for i in range(Q.n):
            want = [nb.id for nb in brute_force_mips(Q.data[i], X, 7)]
            assert mat[i].tolist() == want

    def test_chunk_size_is_irrelevant(self, instance, monkeypatch):
        X, Q = instance
        want = ground_truth_ids(Q, X, 5)
        monkeypatch.setattr(soar.evaluation, "_GT_CHUNK", 3)
        np.testing.assert_array_equal(ground_truth_ids(Q, X, 5), want)

    def test_bad_k(self, instance):
        X, Q = instance
        with pytest.raises(ValueError):
            ground_truth_ids(Q, X, 0)
        with pytest.raises(ValueError):
            ground_truth_ids(Q, X, X.n + 1)


def oracle_kmr(Q, X, index, k):
    """Per-query counting reimplementation built on core.rank over the
    codebook treated as a dataset."""
    c = index.c
    centers_set = Dataset(index.codebook.centers)
    truth = ground_truth_ids(Q, X, k)
    kept_at = np.zeros(c, dtype=np.int64)
    x_sums = np.zeros(c, dtype=np.int64)
    sizes = index.posting_sizes()
    for qi in range(Q.n):
        q = Q.data[qi]
        for v in truth[qi]:
            parts = [int(index.assignment.primary[v])]
            if index.assignment.spilled is not None:
                parts.append(int(index.assignment.spilled[v]))
            best = min(rank(q, index.codebook.centers[p], centers_set) for p in parts)
            kept_at[best - 1 :] += 1
        cs = (index.codebook.centers.astype(np.float64) @ q.astype(np.float64)).astype(
            np.float32
        )
        order = sorted(range(c), key=lambda p: (-cs[p], p))
        total = 0
        for t, p in enumerate(order):
            total += int(sizes[p])
            x_sums[t] += total
    return x_sums / Q.n, kept_at / (k * Q.n)


class TestKmrCurve:
    @pytest.mark.parametrize("policy", ["none", "naive", "soar"])
    def test_equals_counting_oracle(self, instance, policy):
        X, Q = instance
        idx = build(X, c=10, policy=policy, s=2, seed=3, lam=1.0)
        curve = kmr_curve(Q, idx, k=10)
        want_x, want_r = oracle_kmr(Q, X, idx, k=10)
        np.testing.assert_array_equal(curve.datapoints, want_x)
        np.testing.assert_array_equal(curve.recall, want_r)

    def test_shape_and_monotonicity(self, instance):
        X, Q = instance
        idx = build(X, c=10, policy="soar", s=2, seed=3)
        curve = kmr_curve(Q, idx, k=10)
        assert len(curve.recall) == len(curve.datapoints) == 10
        assert np.all(np.diff(curve.recall) >= 0)
        assert np.all(np.diff(curve.datapoints) > 0)
        assert curve.recall[-1] == 1.0
        assert curve.datapoints[-1] == 2 * X.n
        assert (curve.policy, curve.lam, curve.k) == ("soar", 1.0, 10)

    def test_single_partition(self, instance):
        X, Q = instance
        idx = build(X, c=1, policy="none", s=2, seed=3)
        curve = kmr_curve(Q, idx, k=5)
        assert (curve.datapoints.tolist(), curve.recall.tolist()) == ([float(X.n)], [1.0])

    def test_datapoints_to_recall(self, instance):
        X, Q = instance
        idx = build(X, c=10, policy="none", s=2, seed=3)
        curve = kmr_curve(Q, idx, k=10)
        first_full = int(np.flatnonzero(curve.recall >= 1.0)[0])
        assert datapoints_to_recall(curve, 1.0) == float(curve.datapoints[first_full])
        tiny = float(curve.recall[0]) / 2
        assert datapoints_to_recall(curve, tiny) == float(curve.datapoints[0])
        # exact threshold hits the same point, not the next one
        assert datapoints_to_recall(curve, float(curve.recall[0])) == float(
            curve.datapoints[0]
        )

    def test_supplied_truth_matches_computed(self, instance):
        X, Q = instance
        idx = build(X, c=10, policy="soar", s=2, seed=3)
        want = kmr_curve(Q, idx, k=10)
        got = kmr_curve(Q, idx, k=10, truth=ground_truth_ids(Q, X, 10).astype(np.int32))
        np.testing.assert_array_equal(got.datapoints, want.datapoints)
        np.testing.assert_array_equal(got.recall, want.recall)

    def test_supplied_truth_drives_recall(self, instance):
        # every query's "truth" is three members of partition 0, so recall at
        # t=1 is the share of queries that rank partition 0 first
        X, Q = instance
        idx = build(X, c=10, policy="none", s=2, seed=3)
        truth = np.tile(idx.ids[idx.offsets[0] : idx.offsets[1]][:3].astype(np.int64), (Q.n, 1))
        curve = kmr_curve(Q, idx, k=3, truth=truth)
        centers = idx.codebook.centers.astype(np.float64)
        cs = np.array([centers @ q for q in Q.data.astype(np.float64)]).astype(np.float32)
        first = np.mean((cs >= cs[:, :1]).sum(axis=1) == 1)
        assert curve.recall[0] == first
        assert curve.recall[-1] == 1.0

    def test_supplied_truth_validated(self, instance):
        X, Q = instance
        idx = build(X, c=4, policy="none", s=2, seed=3)
        with pytest.raises(ValueError, match="shape"):
            kmr_curve(Q, idx, k=3, truth=np.zeros((Q.n, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="outside"):
            kmr_curve(Q, idx, k=3, truth=np.full((Q.n, 3), X.n, dtype=np.int64))

    def test_datapoints_to_recall_bad_target(self, instance):
        X, Q = instance
        curve = kmr_curve(Q, build(X, c=4, policy="none", s=2, seed=3), k=3)
        for target in (0.0, -0.1, 1.01):
            with pytest.raises(ValueError):
                datapoints_to_recall(curve, target)


class TestPearson:
    def test_exact_cases(self):
        a = np.array([1.0, 2.0, 4.0])
        assert pearson(a, a) == pytest.approx(1.0, abs=1e-12)
        assert pearson(a, -a) == pytest.approx(-1.0, abs=1e-12)
        assert pearson(a, 3 * a + 7) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_variance(self):
        assert pearson([2, 2, 2], [2, 2, 2]) == 1.0
        assert pearson([2, 2, 2], [3, 3, 3]) == 0.0
        assert pearson([2, 2, 2], [1, 5, 9]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


_COLUMNS = ("neighbor_id", "residual_norm", "cos_primary", "score_err_primary",
            "rank_primary", "cos_spilled", "score_err_spilled", "rank_spilled")


class TestDiagnostics:
    def test_record_count_and_ranges(self, instance):
        X, Q = instance
        idx = build(X, c=10, policy="soar", s=2, seed=3)
        out = diagnostics(Q, idx, k=10)
        for name in _COLUMNS:
            assert getattr(out, name).shape == (Q.n * 10,), name
        assert out.summary.num_records == Q.n * 10
        assert np.all((-1.0 <= out.cos_primary) & (out.cos_primary <= 1.0))
        assert np.all((-1.0 <= out.cos_spilled) & (out.cos_spilled <= 1.0))
        assert np.all((1 <= out.rank_primary) & (out.rank_primary <= 10))
        assert np.all((1 <= out.rank_spilled) & (out.rank_spilled <= 10))
        assert np.all(out.residual_norm >= 0.0)
        assert out.summary.pearson_cos is not None
        assert out.summary.counts.sum() == Q.n * 10

    def test_policy_none_has_no_spill_fields(self, instance):
        X, Q = instance
        idx = build(X, c=10, policy="none", s=2, seed=3)
        out = diagnostics(Q, idx, k=5)
        assert out.summary.pearson_cos is None
        assert out.summary.mean_rank_spilled is None
        assert out.cos_spilled is None
        assert out.score_err_spilled is None
        assert out.rank_spilled is None
        assert out.cos_primary.shape == (Q.n * 5,)

    def test_zero_residual_scores_as_orthogonal(self):
        rows = np.zeros((40, 2), dtype=np.float32)
        rows[:30] = [10.0, 0.0]
        rng = np.random.default_rng(9)
        rows[30:] = 0.1 * rng.standard_normal((10, 2))
        X = Dataset(rows)
        Q = Dataset(np.array([[1.0, 0.0]], dtype=np.float32))
        idx = build(X, c=2, policy="naive", s=2, seed=1)
        out = diagnostics(Q, idx, k=10)
        copies = out.neighbor_id < 30
        assert copies.any(), "query should retrieve the duplicated points"
        assert np.all(out.residual_norm[copies] == 0.0)
        assert np.all(out.cos_primary[copies] == 0.0)
        assert np.all(out.score_err_primary[copies] == 0.0)

    def test_supplied_truth_matches_computed(self, instance):
        X, Q = instance
        idx = build(X, c=10, policy="soar", s=2, seed=3)
        want = diagnostics(Q, idx, k=6)
        got = diagnostics(Q, idx, k=6, truth=ground_truth_ids(Q, X, 6).astype(np.int32))
        for name in _COLUMNS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        np.testing.assert_array_equal(got.summary.counts, want.summary.counts)
        assert got.summary.pearson_cos == want.summary.pearson_cos

    def test_supplied_truth_validated(self, instance):
        X, Q = instance
        idx = build(X, c=4, policy="none", s=2, seed=3)
        with pytest.raises(ValueError, match="shape"):
            diagnostics(Q, idx, k=3, truth=np.zeros((Q.n, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="outside"):
            diagnostics(Q, idx, k=3, truth=np.full((Q.n, 3), X.n, dtype=np.int64))
        with pytest.raises(ValueError, match="outside"):
            diagnostics(Q, idx, k=3, truth=np.full((Q.n, 3), -1, dtype=np.int64))

    def test_rejects_zero_norm_query(self, instance):
        X, _ = instance
        idx = build(X, c=4, policy="none", s=2, seed=3)
        Q = Dataset(np.zeros((1, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            diagnostics(Q, idx, k=3)


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("policy", ["none", "naive", "soar"])
def test_loaded_index_evaluates_the_same(instance, policy):
    # evaluation needs nothing beyond what the index file stores
    X, Q = instance
    built = build(X, c=10, policy=policy, s=2, seed=3, lam=1.5)
    loaded = deserialize(serialize(built))
    want, got = kmr_curve(Q, built, k=10), kmr_curve(Q, loaded, k=10)
    assert _same_bits(got.datapoints, want.datapoints)
    assert _same_bits(got.recall, want.recall)
    assert (got.k, got.policy, got.lam) == (want.k, want.policy, want.lam)
    want, got = diagnostics(Q, built, k=10), diagnostics(Q, loaded, k=10)
    for name in _COLUMNS:
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    for field in dataclasses.fields(want.summary):
        g, w = getattr(got.summary, field.name), getattr(want.summary, field.name)
        same = _same_bits(g, w) if isinstance(w, np.ndarray) else g == w
        assert same, field.name


class TestLambdaSweep:
    def test_lambda_zero_matches_naive_assignment(self, instance):
        X, _ = instance
        idx = build(X, c=10, policy="none", s=2, seed=3)
        points = lambda_sweep(X, idx.codebook, (0.0, 1.0))
        naive = assign_spilled_naive(X, idx.codebook)
        data = X.data.astype(np.float64)
        res2 = data - idx.codebook.centers.astype(np.float64)[naive.spilled]
        assert points[0].mean_spill_sq_norm == float(
            (np.linalg.norm(res2, axis=1) ** 2).mean()
        )

    def test_spill_norm_non_decreasing(self, instance):
        X, _ = instance
        idx = build(X, c=10, policy="none", s=2, seed=3)
        points = lambda_sweep(X, idx.codebook)
        norms = [p.mean_spill_sq_norm for p in points]
        assert all(b >= a for a, b in zip(norms, norms[1:]))
        assert [p.lam for p in points] == [0.0, 0.5, 1.0, 2.0, 4.0]

    def test_takes_no_queries(self, instance):
        X, Q = instance
        idx = build(X, c=10, policy="none", s=2, seed=3)
        with pytest.raises(TypeError):
            lambda_sweep(X, idx.codebook, Q, (0.0, 2.0))

    def test_requires_ascending_lambdas(self, instance):
        X, _ = instance
        idx = build(X, c=4, policy="none", s=2, seed=3)
        for bad in ((1.0, 1.0), (2.0, 1.0), ()):
            with pytest.raises(ValueError):
                lambda_sweep(X, idx.codebook, bad)


class TestTheoremMc:
    def test_lambda_zero_recovers_squared_norms(self):
        rng = np.random.default_rng(101)
        r = rng.standard_normal(8)
        cands = rng.standard_normal((4, 8))
        (rep,) = mc_verify_theorem1(r, cands, [0.0], samples=MIN_THEOREM_SAMPLES, seed=7)
        np.testing.assert_allclose(rep.closed_form, np.linalg.norm(cands, axis=1) ** 2)
        assert rep.max_ratio_error < 0.02

    def test_parallel_vs_orthogonal_ratio(self):
        r = np.zeros(16)
        r[0] = 2.0
        parallel = np.zeros(16)
        parallel[0] = 0.7
        orthogonal = np.zeros(16)
        orthogonal[1] = 0.7
        (rep,) = mc_verify_theorem1(
            r, [parallel, orthogonal], [1.0], samples=MIN_THEOREM_SAMPLES, seed=7
        )
        assert rep.closed_form[0] / rep.closed_form[1] == pytest.approx(2.0)
        assert rep.empirical[0] / rep.empirical[1] == pytest.approx(2.0, rel=0.05)
        assert rep.max_ratio_error < 0.05

    def test_error_shrinks_with_samples(self):
        rng = np.random.default_rng(55)
        small, large = [], []
        for trial in range(10):
            r = rng.standard_normal(8)
            cands = rng.standard_normal((3, 8))
            (rep,) = mc_verify_theorem1(r, cands, [1.0], MIN_THEOREM_SAMPLES, seed=trial)
            small.append(rep.max_ratio_error)
            large.append(
                mc_verify_theorem1(
                    r, cands, [1.0], 4 * MIN_THEOREM_SAMPLES, seed=trial
                )[0].max_ratio_error
            )
        assert np.mean(large) < np.mean(small)

    def test_deterministic_per_seed(self):
        r = np.arange(1.0, 7.0)
        cands = np.eye(6)[:2]
        (a,) = mc_verify_theorem1(r, cands, [1.0], MIN_THEOREM_SAMPLES, seed=3)
        (b,) = mc_verify_theorem1(r, cands, [1.0], MIN_THEOREM_SAMPLES, seed=3)
        (c,) = mc_verify_theorem1(r, cands, [1.0], MIN_THEOREM_SAMPLES, seed=4)
        np.testing.assert_array_equal(a.empirical, b.empirical)
        assert not np.array_equal(a.empirical, c.empirical)

    def test_accepts_seed_sequence(self):
        r = np.arange(1.0, 5.0)
        cands = np.eye(4)[:2]
        ss = np.random.SeedSequence(12)
        (a,) = mc_verify_theorem1(r, cands, [1.0], MIN_THEOREM_SAMPLES, seed=ss)
        (b,) = mc_verify_theorem1(
            r, cands, [1.0], MIN_THEOREM_SAMPLES, seed=np.random.SeedSequence(12)
        )
        np.testing.assert_array_equal(a.empirical, b.empirical)

    def test_one_draw_per_block_for_all_lambdas(self):
        """Every lambda's report equals a run with that lambda alone, bit for
        bit, and the reports come back in the order of the lambdas."""
        rng = np.random.default_rng(56)
        r = rng.standard_normal(6)
        cands = rng.standard_normal((3, 6))
        lams = [2.0, 0.0, 0.5, 1.0]
        together = mc_verify_theorem1(r, cands, lams, MIN_THEOREM_SAMPLES + 7, seed=9)
        assert [rep.lam for rep in together] == lams
        for lam, rep in zip(lams, together):
            (alone,) = mc_verify_theorem1(r, cands, [lam], MIN_THEOREM_SAMPLES + 7, seed=9)
            assert rep.empirical.tobytes() == alone.empirical.tobytes()
            assert rep.closed_form.tobytes() == alone.closed_form.tobytes()
            assert rep.max_ratio_error == alone.max_ratio_error

    def test_validation(self):
        r = np.ones(4)
        cands = np.eye(4)[:2]
        with pytest.raises(ValueError, match="at least one lambda"):
            mc_verify_theorem1(r, cands, [], MIN_THEOREM_SAMPLES)
        with pytest.raises(ValueError):
            mc_verify_theorem1(r, cands, [-1.0], MIN_THEOREM_SAMPLES)
        with pytest.raises(ValueError):
            mc_verify_theorem1(r, cands, [1.0], MIN_THEOREM_SAMPLES - 1)
        with pytest.raises(ValueError):
            mc_verify_theorem1(np.zeros(4), cands, [1.0], MIN_THEOREM_SAMPLES)
        with pytest.raises(ValueError):
            mc_verify_theorem1(r, cands[:1], [1.0], MIN_THEOREM_SAMPLES)
        with pytest.raises(ValueError):
            mc_verify_theorem1(r, np.zeros((2, 4)), [1.0], MIN_THEOREM_SAMPLES)
        with pytest.raises(ValueError):
            mc_verify_theorem1(r, np.eye(5)[:2], [1.0], MIN_THEOREM_SAMPLES)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_lambda_must_be_finite_and_non_negative(self, lam):
        with pytest.raises(ValueError, match="requires a finite lam >= 0"):
            mc_verify_theorem1(np.ones(4), np.eye(4)[:2], [1.0, lam], MIN_THEOREM_SAMPLES)


class TestLemmaMc:
    def test_identical_vectors_give_unit_correlation(self):
        r = np.arange(1.0, 9.0)
        rep = mc_verify_lemma(r, r, samples=200_000, seed=5)
        assert rep.closed_form == pytest.approx(1.0, abs=1e-12)
        assert rep.empirical_rho == pytest.approx(1.0, abs=1e-12)
        assert rep.abs_error < 1e-9

    def test_orthogonal_vectors_decorrelate(self):
        r = np.zeros(16)
        r[0] = 1.0
        rp = np.zeros(16)
        rp[3] = 2.5
        rep = mc_verify_lemma(r, rp, samples=200_000, seed=5)
        assert rep.closed_form == 0.0
        assert abs(rep.empirical_rho) < 0.01

    def test_random_pair_accuracy(self):
        rng = np.random.default_rng(77)
        r = rng.standard_normal(64)
        rp = rng.standard_normal(64)
        rep = mc_verify_lemma(r, rp, samples=1_000_000, seed=9)
        assert rep.abs_error < 0.005

    def test_deterministic_per_seed(self):
        r = np.arange(1.0, 5.0)
        rp = np.arange(4.0, 0.0, -1.0)
        a = mc_verify_lemma(r, rp, samples=150_000, seed=2)
        b = mc_verify_lemma(r, rp, samples=150_000, seed=2)
        assert a.empirical_rho == b.empirical_rho

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_verify_lemma(np.zeros(4), np.ones(4), samples=10)
        with pytest.raises(ValueError):
            mc_verify_lemma(np.ones(4), np.ones(5), samples=10)
        with pytest.raises(ValueError):
            mc_verify_lemma(np.ones(4), np.ones(4), samples=1)
