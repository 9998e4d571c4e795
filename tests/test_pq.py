import copy
import dataclasses

import numpy as np
import pytest

from soar.core import batch_inner_products
from soar.pq import (
    PQCodebook,
    pq_decode,
    pq_encode_batch,
    score_codes,
    scoring_table,
    train_pq,
    unpack_codes,
)


def _book_from(centers_2x16x2):
    return PQCodebook(centers=np.asarray(centers_2x16x2, dtype=np.float32), d=4)


def _grid_book():
    """d=4, s=2: centers laid out on a known grid for hand-checkable codes."""
    centers = np.zeros((2, 16, 2), dtype=np.float32)
    for t in range(16):
        centers[0, t] = (t, 0.0)
        centers[1, t] = (0.0, t)
    return _book_from(centers)


class TestCenters64:
    def test_read_only_float64_cast(self):
        book = _grid_book()
        assert book.centers64.dtype == np.float64
        assert book.centers64.tobytes() == book.centers.astype(np.float64).tobytes()
        assert not book.centers64.flags.writeable
        with pytest.raises(ValueError):
            book.centers64[0, 0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            book.centers64 = book.centers64

    def test_not_in_init_repr_or_equality(self):
        (field,) = [f for f in dataclasses.fields(PQCodebook) if f.name == "centers64"]
        assert (field.init, field.repr, field.compare) == (False, False, False)
        assert "centers64" not in repr(_grid_book())
        one = _grid_book()
        other = copy.copy(one)  # the same centers array, so equal if centers64 is ignored
        object.__setattr__(other, "centers64", np.zeros_like(one.centers64))
        assert one == other


class TestTrainPq:
    def test_shapes(self):
        rng = np.random.default_rng(3)
        book = train_pq(rng.standard_normal((500, 10)), s=2, seed=1)
        assert (book.m, book.s, book.d) == (5, 2, 10)
        assert book.centers.shape == (5, 16, 2)
        assert book.code_bytes == 3

    def test_zero_residuals_zero_centers_zero_codes(self):
        book = train_pq(np.zeros((100, 6)), s=2, seed=0)
        np.testing.assert_array_equal(book.centers, np.zeros((3, 16, 2), dtype=np.float32))
        codes = pq_encode_batch(np.zeros((4, 6)), book)
        np.testing.assert_array_equal(codes, np.zeros((4, 2), dtype=np.uint8))

    def test_padding_when_s_does_not_divide_d(self):
        rng = np.random.default_rng(5)
        book = train_pq(rng.standard_normal((200, 5)), s=2, seed=1)
        assert (book.m, book.padded_d) == (3, 6)
        # padded tail dimensions only ever see zeros
        np.testing.assert_array_equal(book.centers[2, :, 1], np.zeros(16, dtype=np.float32))

    def test_beats_random_codebook(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((2000, 8))
        trained = train_pq(rows, s=2, seed=1)
        random_book = PQCodebook(
            centers=rng.standard_normal((4, 16, 2)).astype(np.float32), d=8
        )

        def recon_error(book):
            codes = pq_encode_batch(rows, book)
            err = 0.0
            for i in range(200):
                err += float(((rows[i] - pq_decode(codes[i], book)) ** 2).sum())
            return err

        assert recon_error(trained) < recon_error(random_book)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((300, 6))
        one = train_pq(rows, s=3, seed=4)
        two = train_pq(rows, s=3, seed=4)
        np.testing.assert_array_equal(one.centers, two.centers)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            train_pq(np.ones((10, 4)), s=0, seed=0)


class TestEncodeDecode:
    def test_hand_codes_on_grid(self):
        book = _grid_book()
        code = pq_encode_batch(np.array([[3.2, 0.0, 0.0, 6.8]]), book)[0]
        nibbles = unpack_codes(code[None, :], book.m)[0]
        np.testing.assert_array_equal(nibbles, [3, 7])
        np.testing.assert_array_equal(pq_decode(code, book), [3.0, 0.0, 0.0, 7.0])

    def test_packing_two_nibbles_per_byte(self):
        book = _grid_book()
        code = pq_encode_batch(np.array([[5.0, 0.0, 0.0, 12.0]]), book)[0]
        assert code.shape == (1,)
        assert code[0] == 5 | (12 << 4)

    def test_encode_ties_take_lowest_center(self):
        centers = np.zeros((1, 16, 2), dtype=np.float32)
        centers[0, 3] = (1.0, 0.0)
        centers[0, 9] = (1.0, 0.0)  # duplicate of center 3
        book = PQCodebook(centers=centers, d=2)
        nib = unpack_codes(pq_encode_batch(np.array([[1.0, 0.0]]), book), 1)[0]
        assert nib[0] == 3

    def test_matches_per_subspace_argmin_oracle(self):
        rng = np.random.default_rng(13)
        book = train_pq(rng.standard_normal((500, 6)), s=2, seed=2)
        rows = rng.standard_normal((50, 6))
        codes = pq_encode_batch(rows, book)
        nibbles = unpack_codes(codes, book.m)
        for i in range(rows.shape[0]):
            for j in range(book.m):
                sub = rows[i, 2 * j : 2 * j + 2]
                dists = [float(((sub - book.centers[j, t]) ** 2).sum()) for t in range(16)]
                assert nibbles[i, j] == int(np.argmin(dists))

    def test_roundtrip_reduces_error_vs_zero(self):
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((1000, 8))
        book = train_pq(rows, s=2, seed=3)
        i = 5
        decoded = pq_decode(pq_encode_batch(rows[i : i + 1], book)[0], book)
        assert ((rows[i] - decoded) ** 2).sum() < (rows[i] ** 2).sum()

    def test_dimension_mismatch(self):
        book = _grid_book()
        with pytest.raises(ValueError):
            pq_encode_batch(np.ones((1, 5)), book)


class TestPqScore:
    def test_zero_code_zero_score(self):
        book = train_pq(np.zeros((50, 4)), s=2, seed=0)
        q = np.array([1.0, 2.0, 3.0, 4.0])
        codes = pq_encode_batch(np.zeros((1, 4)), book)
        assert score_codes(scoring_table(q, book), codes).tolist() == [0.0]

    def test_lookup_identity_against_decode(self):
        rng = np.random.default_rng(19)
        rows = rng.standard_normal((800, 10))
        book = train_pq(rows, s=3, seed=5)  # padded case on purpose
        codes = pq_encode_batch(rows[:50], book)
        for i in range(50):
            q = rng.standard_normal(10)
            via_table = score_codes(scoring_table(q, book), codes[i : i + 1])[0]
            via_decode = batch_inner_products(q, pq_decode(codes[i], book)[None, :])[0]
            assert via_table == pytest.approx(via_decode, rel=1e-5, abs=1e-6)
