import dataclasses

import numpy as np
import pytest

from soar import vq
from soar.core import Dataset
from soar.vq import (
    AssignmentTable,
    Codebook,
    assign_primary,
    assign_spilled_naive,
    assign_spilled_soar,
    soar_loss,
    train_kmeans,
)


def _two_blobs(n_per, d, gap, sigma, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, d)) * sigma
    b = rng.standard_normal((n_per, d)) * sigma
    a[:, 0] -= gap / 2
    b[:, 0] += gap / 2
    return Dataset(np.vstack([a, b]).astype(np.float32))


class TestTrainKmeans:
    def test_c_distinct_points_recovered_exactly(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((8, 5)).astype(np.float32)
        book = train_kmeans(Dataset(pts), c=8, seed=0)
        got = {row.tobytes() for row in book.centers}
        want = {row.tobytes() for row in pts}
        assert got == want

    def test_two_blob_means(self):
        X = _two_blobs(500, 6, gap=10.0, sigma=0.5, seed=7)
        book = train_kmeans(X, c=2, seed=1)
        blob_means = np.array([X.data[:500].mean(axis=0), X.data[500:].mean(axis=0)])
        order = np.argsort(book.centers[:, 0])
        np.testing.assert_allclose(
            book.centers[order].astype(np.float64), blob_means, atol=3 * 0.5 / np.sqrt(500)
        )

    def test_objective_non_increasing_over_iterations(self):
        rng = np.random.default_rng(11)
        X = Dataset(rng.standard_normal((400, 8)))
        objectives = []
        for iters in range(1, 7):
            book = train_kmeans(X, c=10, max_iters=iters, seed=5)
            assign = assign_primary(X, book).primary
            diffs = X.data.astype(np.float64) - book.centers.astype(np.float64)[assign]
            objectives.append(float((diffs**2).sum()))
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier + 1e-9

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        X = Dataset(rng.standard_normal((300, 4)))
        one = train_kmeans(X, c=12, seed=99)
        two = train_kmeans(X, c=12, seed=99)
        np.testing.assert_array_equal(one.centers, two.centers)
        other = train_kmeans(X, c=12, seed=100)
        assert not np.array_equal(one.centers, other.centers)

    def test_c_larger_than_n_rejected(self):
        X = Dataset(np.ones((3, 2)))
        with pytest.raises(ValueError):
            train_kmeans(X, c=4, seed=0)

    def test_centers_distinct_on_duplicate_heavy_data(self):
        # one far singleton plus a large pile of near-duplicates: k-means++
        # happily seeds several centers inside the pile
        rng = np.random.default_rng(17)
        pile = rng.standard_normal((200, 3)) * 1e-4
        lone = np.array([[50.0, 0.0, 0.0]])
        X = Dataset(np.vstack([pile, lone]).astype(np.float32))
        book = train_kmeans(X, c=6, seed=2)
        assert len({row.tobytes() for row in book.centers}) == 6


class TestAssignPrimary:
    def test_centers_map_to_themselves(self):
        rng = np.random.default_rng(19)
        centers = rng.standard_normal((5, 4)).astype(np.float32)
        table = assign_primary(Dataset(centers), Codebook(centers))
        np.testing.assert_array_equal(table.primary, np.arange(5))
        assert table.policy == "none" and table.spilled is None

    def test_hand_example(self):
        book = Codebook([[0.0, 0.0], [5.0, 0.0]])
        table = assign_primary(Dataset([[4.0, 0.0], [1.0, 0.0]]), book)
        np.testing.assert_array_equal(table.primary, [1, 0])

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(23)
        X = Dataset(rng.standard_normal((200, 7)))
        book = Codebook(rng.standard_normal((9, 7)).astype(np.float32))
        table = assign_primary(X, book)
        for i in range(X.n):
            dists = [
                float(((X.data[i].astype(np.float64) - book.centers[j].astype(np.float64)) ** 2).sum())
                for j in range(book.c)
            ]
            assert table.primary[i] == int(np.argmin(dists))

    def test_tie_break_lower_id(self):
        book = Codebook([[1.0, 0.0], [-1.0, 0.0]])
        table = assign_primary(Dataset([[0.0, 3.0]]), book)
        assert table.primary[0] == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assign_primary(Dataset(np.ones((2, 3))), Codebook(np.ones((2, 2))))


class TestSoarLoss:
    def test_orthogonal_penalty_free(self):
        assert soar_loss([0.0, 2.0], [3.0, 0.0], lam=5.0) == pytest.approx(4.0)

    def test_parallel_fully_penalized(self):
        # r' parallel to r: loss is (1 + lam) * ||r'||^2
        assert soar_loss([2.0, 0.0], [1.0, 0.0], lam=1.5) == pytest.approx(2.5 * 4.0)

    def test_lambda_zero_is_squared_norm(self):
        rng = np.random.default_rng(29)
        rp = rng.standard_normal(12)
        r = rng.standard_normal(12)
        assert soar_loss(rp, r, lam=0.0) == float(rp @ rp)

    def test_zero_primary_residual_no_penalty(self):
        rp = np.array([1.0, 2.0])
        assert soar_loss(rp, [0.0, 0.0], lam=3.0) == pytest.approx(5.0)

    def test_projection_value(self):
        # proj of (1,1) onto (2,0) has squared norm 1
        assert soar_loss([1.0, 1.0], [2.0, 0.0], lam=2.0) == pytest.approx(2.0 + 2.0 * 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            soar_loss([1.0], [1.0], lam=-0.1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_lambda_must_be_finite_and_non_negative(self, lam):
        with pytest.raises(ValueError, match="requires a finite lam >= 0"):
            soar_loss(np.ones(3), np.ones(3), lam)

    def test_lower_bounded_by_squared_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rp = rng.standard_normal(9)
            r = rng.standard_normal(9)
            assert soar_loss(rp, r, lam=1.7) >= float(rp @ rp) - 1e-12

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(33)
        rp = rng.standard_normal(9)
        r = rng.standard_normal(9)
        losses = [soar_loss(rp, r, lam) for lam in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert losses == sorted(losses)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(37)
        rp = rng.standard_normal(8)
        r = rng.standard_normal(8)
        rot, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        assert soar_loss(rot @ rp, rot @ r, lam=1.3) == pytest.approx(
            soar_loss(rp, r, lam=1.3), rel=1e-10
        )


# the worked 2-D failure-mode geometry: x sits between its own center C1 and
# a center C3 in a nearly orthogonal direction; C2 is closer than C3 but
# collinear with the primary residual. Small lambda keeps the closer C2,
# larger lambda flips the spill to C3. The crossover sits near lambda 1.39.
_GEO_X = np.array([[2.8, 1.9]], dtype=np.float32)
_GEO_CENTERS = np.array([[2.0, 2.5], [1.68, 2.74], [3.01, 0.24]], dtype=np.float32)


class TestAssignSpilledSoar:
    def test_geometry_small_lambda_keeps_nearest(self):
        X = Dataset(_GEO_X)
        book = Codebook(_GEO_CENTERS)
        prim = assign_primary(X, book)
        assert prim.primary[0] == 0
        assert assign_spilled_soar(X, book, lam=1.0).spilled[0] == 1

    def test_geometry_large_lambda_prefers_orthogonal(self):
        X = Dataset(_GEO_X)
        book = Codebook(_GEO_CENTERS)
        assert assign_spilled_soar(X, book, lam=2.0).spilled[0] == 2
        assert assign_spilled_soar(X, book, lam=8.0).spilled[0] == 2

    def test_geometry_crossover_threshold(self):
        X = Dataset(_GEO_X)
        book = Codebook(_GEO_CENTERS)
        # hand-derived: losses tie at lambda = 0.8397 / 0.605104
        threshold = 0.8397 / 0.605104
        assert assign_spilled_soar(X, book, lam=threshold - 0.05).spilled[0] == 1
        assert assign_spilled_soar(X, book, lam=threshold + 0.05).spilled[0] == 2

    def test_matches_scalar_loss_scan(self):
        rng = np.random.default_rng(41)
        X = Dataset(rng.standard_normal((150, 6)))
        book = Codebook(rng.standard_normal((12, 6)).astype(np.float32))
        prim = assign_primary(X, book)
        table = assign_spilled_soar(X, book, lam=1.0)
        for i in range(X.n):
            x = X.data[i].astype(np.float64)
            r = x - book.centers[prim.primary[i]].astype(np.float64)
            losses = [
                soar_loss(x - book.centers[j].astype(np.float64), r, 1.0)
                if j != prim.primary[i] else np.inf
                for j in range(book.c)
            ]
            assert table.spilled[i] == int(np.argmin(losses))

    def test_never_selects_primary(self):
        rng = np.random.default_rng(43)
        X = Dataset(rng.standard_normal((500, 5)))
        book = Codebook(rng.standard_normal((7, 5)).astype(np.float32))
        for lam in (0.0, 1.0, 4.0):
            table = assign_spilled_soar(X, book, lam)
            assert np.all(table.spilled != table.primary)

    def test_lambda_zero_equals_naive_exactly(self):
        rng = np.random.default_rng(47)
        X = Dataset(rng.standard_normal((2000, 8)))
        book = train_kmeans(X, c=20, seed=3)
        via_soar = assign_spilled_soar(X, book, lam=0.0)
        via_naive = assign_spilled_naive(X, book)
        np.testing.assert_array_equal(via_soar.spilled, via_naive.spilled)

    def test_spill_residual_mass_grows_with_lambda(self):
        rng = np.random.default_rng(53)
        X = Dataset(rng.standard_normal((3000, 12)))
        book = train_kmeans(X, c=30, seed=9)
        means = []
        for lam in (0.0, 1.0, 4.0):
            table = assign_spilled_soar(X, book, lam)
            res = X.data.astype(np.float64) - book.centers.astype(np.float64)[table.spilled]
            means.append(float((res**2).sum(axis=1).mean()))
        assert means[0] <= means[1] <= means[2]

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_rejects_non_finite_lambda(self, lam):
        X = Dataset(_GEO_X)
        book = Codebook(_GEO_CENTERS)
        with pytest.raises(ValueError, match="requires a finite lam >= 0"):
            assign_spilled_soar(X, book, lam)

    def test_requires_two_partitions(self):
        X = Dataset(np.ones((3, 2)))
        book = Codebook(np.ones((1, 2)))
        with pytest.raises(ValueError):
            assign_spilled_soar(X, book, lam=1.0)

    def test_negative_lambda_rejected(self):
        X = Dataset(np.ones((3, 2)))
        book = Codebook([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            assign_spilled_soar(X, book, lam=-1.0)


class TestAssignSpilledNaive:
    def test_hand_example(self):
        book = Codebook([[0.0, 0.0], [4.0, 0.0], [10.0, 0.0]])
        X = Dataset([[1.0, 0.0], [9.0, 0.0]])
        prim = assign_primary(X, book)
        table = assign_spilled_naive(X, book)
        np.testing.assert_array_equal(prim.primary, [0, 2])
        np.testing.assert_array_equal(table.spilled, [1, 1])

    def test_matches_distance_sort_oracle(self):
        rng = np.random.default_rng(59)
        X = Dataset(rng.standard_normal((300, 5)))
        book = Codebook(rng.standard_normal((10, 5)).astype(np.float32))
        table = assign_spilled_naive(X, book)
        for i in range(X.n):
            dists = [
                float(((X.data[i].astype(np.float64) - book.centers[j].astype(np.float64)) ** 2).sum())
                for j in range(book.c)
            ]
            assert table.spilled[i] == int(np.argsort(dists, kind="stable")[1])


def _spill_instances():
    """(name, X, codebook): random data, duplicate-heavy data, and data on
    a grid whose distances to the centers tie exactly."""
    rng = np.random.default_rng(61)
    X = Dataset(rng.standard_normal((400, 6)))
    dup = Dataset(np.repeat(rng.standard_normal((5, 6)), 80, axis=0))
    grid = np.array([[x, y] for x in range(-1, 4) for y in range(-1, 4)], dtype=np.float32)
    square = Codebook([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [0.0, 0.0]])
    return [
        ("random", X, train_kmeans(X, c=16, seed=2)),
        ("duplicates", dup, train_kmeans(dup, c=8, seed=2)),
        ("ties", Dataset(np.repeat(grid, 3, axis=0)), square),
    ]


def _spill_tables(X, book):
    tables = {f"soar-{lam:g}": assign_spilled_soar(X, book, lam) for lam in (0.0, 1.0, 8.0)}
    tables["naive"] = assign_spilled_naive(X, book)
    return tables


class TestOnePassSpill:
    """A spill function's primary comes from its own distance pass and is
    assign_primary's, bit for bit."""

    @pytest.mark.parametrize("name, X, book", _spill_instances(), ids=lambda v: str(v)[:10])
    def test_primary_equals_assign_primary(self, name, X, book):
        want = assign_primary(X, book).primary
        for policy, table in _spill_tables(X, book).items():
            assert table.primary.dtype == want.dtype == np.int32, policy
            assert table.primary.tobytes() == want.tobytes(), policy
            assert np.all(table.spilled != table.primary), policy

    def test_ties_take_the_lower_partition(self):
        X = Dataset([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        book = Codebook([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        table = assign_spilled_naive(X, book)
        np.testing.assert_array_equal(table.primary, [0, 0, 0])
        np.testing.assert_array_equal(table.spilled, [1, 1, 2])

    def test_chunk_boundaries(self, monkeypatch):
        rng = np.random.default_rng(67)
        X = Dataset(rng.standard_normal((50, 4)))
        book = train_kmeans(X, c=6, seed=1)
        whole = _spill_tables(X, book)
        monkeypatch.setattr(vq, "_CHUNK", 7)  # 50 rows: seven full chunks and a partial one
        want = assign_primary(X, book).primary
        for policy, table in _spill_tables(X, book).items():
            assert table.primary.tobytes() == want.tobytes(), policy
            np.testing.assert_array_equal(table.primary, whole[policy].primary)
            np.testing.assert_array_equal(table.spilled, whole[policy].spilled)


class TestCodebookCenters64:
    def test_read_only_float64_cast(self):
        book = Codebook(np.arange(6, dtype=np.float64).reshape(3, 2) / 7)
        want = book.centers.astype(np.float64)
        assert book.centers64.dtype == np.float64
        assert book.centers64.tobytes() == want.tobytes()
        assert not book.centers64.flags.writeable
        with pytest.raises(ValueError):
            book.centers64[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            book.centers64 = want

    def test_not_in_init_repr_or_equality(self):
        (field,) = [f for f in dataclasses.fields(Codebook) if f.name == "centers64"]
        assert (field.init, field.repr, field.compare) == (False, False, False)
        assert "centers64" not in repr(Codebook([[1.0, 2.0]]))
        one, other = Codebook([[1.0]]), Codebook([[1.0]])
        object.__setattr__(other, "centers64", np.zeros((1, 1)))
        assert one == other  # equality reads the float32 centers alone
        with pytest.raises(TypeError):
            Codebook([[1.0, 2.0]], centers64=np.zeros((1, 2)))


class TestAssignmentTable:
    def test_policy_none_forbids_spill(self):
        with pytest.raises(ValueError):
            AssignmentTable(primary=np.array([0]), spilled=np.array([1]), policy="none")

    def test_spilled_policy_requires_spill(self):
        with pytest.raises(ValueError):
            AssignmentTable(primary=np.array([0]), spilled=None, policy="naive")

    def test_spill_must_differ_from_primary(self):
        with pytest.raises(ValueError):
            AssignmentTable(primary=np.array([0, 1]), spilled=np.array([0, 0]), policy="naive")

    def test_soar_requires_lambda(self):
        with pytest.raises(ValueError):
            AssignmentTable(primary=np.array([0]), spilled=np.array([1]), policy="soar")

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_soar_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError, match="requires a finite lam >= 0"):
            AssignmentTable(primary=np.array([0]), spilled=np.array([1]), policy="soar", lam=lam)

    def test_naive_rejects_lambda(self):
        with pytest.raises(ValueError, match="takes no lam"):
            AssignmentTable(primary=np.array([0]), spilled=np.array([1]), policy="naive", lam=1.0)

    def test_none_rejects_lambda(self):
        with pytest.raises(ValueError, match="takes no lam"):
            AssignmentTable(primary=np.array([0]), spilled=None, policy="none", lam=0.0)
