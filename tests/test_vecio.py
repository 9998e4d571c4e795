import numpy as np
import pytest

from soar.core import _FINITE_ROWS
from soar.vecio import (
    DataFormatError,
    file_digest,
    ground_truth_cache_path,
    load_or_compute_ground_truth,
    read_fvecs,
    read_ivecs,
    write_fvecs,
    write_ivecs,
)


class TestFvecs:
    def test_roundtrip(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((7, 5)).astype(np.float32)
        path = tmp_path / "a.fvecs"
        write_fvecs(path, arr)
        np.testing.assert_array_equal(read_fvecs(path), arr)

    def test_layout_is_dim_prefixed_little_endian(self, tmp_path):
        path = tmp_path / "a.fvecs"
        write_fvecs(path, np.array([[1.5, -2.0]], dtype=np.float32))
        raw = path.read_bytes()
        assert len(raw) == 12
        assert raw[:4] == (2).to_bytes(4, "little")
        assert np.frombuffer(raw[4:], dtype="<f4").tolist() == [1.5, -2.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="no such file"):
            read_fvecs(tmp_path / "nope.fvecs")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.fvecs"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError, match="empty"):
            read_fvecs(path)

    def test_bad_size(self, tmp_path):
        path = tmp_path / "a.fvecs"
        write_fvecs(path, np.ones((2, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(DataFormatError, match="multiple"):
            read_fvecs(path)

    def test_inconsistent_dims(self, tmp_path):
        path = tmp_path / "a.fvecs"
        rec1 = (3).to_bytes(4, "little") + np.zeros(3, "<f4").tobytes()
        rec2 = (2).to_bytes(4, "little") + np.zeros(3, "<f4").tobytes()
        path.write_bytes(rec1 + rec2)
        with pytest.raises(DataFormatError, match="inconsistent"):
            read_fvecs(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "a.fvecs"
        path.write_bytes((0).to_bytes(4, "little"))
        with pytest.raises(DataFormatError, match="not positive"):
            read_fvecs(path)

    def test_non_finite_rejected_both_ways(self, tmp_path):
        path = tmp_path / "a.fvecs"
        with pytest.raises(DataFormatError):
            write_fvecs(path, np.array([[np.nan]]))
        write_fvecs(path, np.array([[1.0]], dtype=np.float32))
        bad = bytearray(path.read_bytes())
        bad[4:8] = np.array([np.inf], "<f4").tobytes()
        path.write_bytes(bytes(bad))
        with pytest.raises(DataFormatError, match="non-finite"):
            read_fvecs(path)

    def test_non_finite_after_a_block_boundary(self, tmp_path):
        """read_fvecs and write_fvecs check finiteness in blocks of rows, as
        Dataset does; a NaN in the second block's first row is still found."""
        path = tmp_path / "a.fvecs"
        data = np.ones((_FINITE_ROWS + 2, 2), dtype=np.float32)
        data[_FINITE_ROWS, 0] = np.nan
        with pytest.raises(DataFormatError, match="refusing to write non-finite"):
            write_fvecs(path, data)
        data[_FINITE_ROWS, 0] = 1.0
        write_fvecs(path, data)
        bad = bytearray(path.read_bytes())
        at = _FINITE_ROWS * 4 * 3 + 4  # that row's first value, after its dimension
        bad[at : at + 4] = np.array([np.nan], "<f4").tobytes()
        path.write_bytes(bytes(bad))
        with pytest.raises(DataFormatError, match="non-finite"):
            read_fvecs(path)

    def test_rejects_empty_array(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_fvecs(tmp_path / "a.fvecs", np.empty((0, 3), dtype=np.float32))


class TestIvecs:
    def test_roundtrip(self, tmp_path):
        arr = np.array([[3, -1, 7], [0, 2, 2]], dtype=np.int32)
        path = tmp_path / "a.ivecs"
        write_ivecs(path, arr)
        np.testing.assert_array_equal(read_ivecs(path), arr)


class TestGroundTruthCache:
    def _write_pair(self, tmp_path):
        rng = np.random.default_rng(2)
        data = tmp_path / "base.fvecs"
        queries = tmp_path / "q.fvecs"
        write_fvecs(data, rng.standard_normal((60, 4)).astype(np.float32))
        write_fvecs(queries, rng.standard_normal((5, 4)).astype(np.float32))
        return data, queries

    def test_cache_key_covers_dataset_queries_and_k(self, tmp_path):
        data, queries = self._write_pair(tmp_path)
        base = ground_truth_cache_path(data, queries, 3)
        assert base.parent == data.parent
        assert base.suffix == ".ivecs"
        assert "k3" in base.name
        assert ground_truth_cache_path(data, queries, 4) != base
        write_fvecs(queries, np.ones((2, 4), dtype=np.float32))
        assert ground_truth_cache_path(data, queries, 3) != base

    def test_compute_then_reuse(self, tmp_path):
        data, queries = self._write_pair(tmp_path)
        ids = load_or_compute_ground_truth(data, queries, 3)
        cache = ground_truth_cache_path(data, queries, 3)
        assert cache.exists()
        stamp = cache.stat().st_mtime_ns
        again = load_or_compute_ground_truth(data, queries, 3)
        np.testing.assert_array_equal(ids, again)
        assert cache.stat().st_mtime_ns == stamp

    def test_matches_direct_computation(self, tmp_path):
        from soar.core import Dataset
        from soar.evaluation import ground_truth_ids

        data, queries = self._write_pair(tmp_path)
        ids = load_or_compute_ground_truth(data, queries, 4)
        want = ground_truth_ids(
            Dataset(read_fvecs(queries)), Dataset(read_fvecs(data)), 4
        )
        np.testing.assert_array_equal(ids, want)

    def test_stale_cache_is_recomputed(self, tmp_path):
        data, queries = self._write_pair(tmp_path)
        want = load_or_compute_ground_truth(data, queries, 3)
        cache = ground_truth_cache_path(data, queries, 3)
        # width k but too few rows (an older write cut short), then not
        # ivecs at all: each is recomputed and rewritten, never returned
        for stale in (want[:2], None):
            if stale is None:
                cache.write_bytes(cache.read_bytes()[:-5])
            else:
                write_ivecs(cache, stale)
            np.testing.assert_array_equal(load_or_compute_ground_truth(data, queries, 3), want)
            np.testing.assert_array_equal(read_ivecs(cache), want)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["base.fvecs", "q.fvecs", cache.name]
        )

    def test_digest_is_content_hash(self, tmp_path):
        p = tmp_path / "b.bin"
        p.write_bytes(b"abc")
        assert file_digest(p) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
