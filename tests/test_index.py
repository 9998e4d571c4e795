import os
import struct
from pathlib import Path

import numpy as np
import pytest

from soar.core import Dataset, brute_force_mips
from soar.index import (
    HEADER_BYTES,
    IndexFormatError,
    SearchParams,
    build,
    deserialize,
    load,
    save,
    search,
    serialize,
)


@pytest.fixture(scope="module")
def small_data():
    rng = np.random.default_rng(71)
    X = Dataset(rng.standard_normal((1200, 12)).astype(np.float32))
    Q = rng.standard_normal((40, 12))
    return X, Q


@pytest.fixture(scope="module")
def indices(small_data):
    X, _ = small_data
    return {
        policy: build(X, c=10, policy=policy, s=2, seed=5, lam=1.0)
        for policy in ("none", "naive", "soar")
    }


class TestBuild:
    def test_posting_mass(self, small_data, indices):
        X, _ = small_data
        assert indices["none"].posting_sizes().sum() == X.n
        assert indices["naive"].posting_sizes().sum() == 2 * X.n
        assert indices["soar"].posting_sizes().sum() == 2 * X.n

    def test_memberships_match_assignment(self, indices):
        idx = indices["soar"]
        member_of = [[] for _ in range(idx.n)]
        for p in range(idx.c):
            for i in idx.ids[idx.offsets[p] : idx.offsets[p + 1]]:
                member_of[int(i)].append(p)
        for i in range(idx.n):
            expected = sorted({int(idx.assignment.primary[i]), int(idx.assignment.spilled[i])})
            assert sorted(member_of[i]) == expected

    def test_each_id_appears_once_per_partition(self, indices):
        for idx in indices.values():
            for p in range(idx.c):
                ids = idx.ids[idx.offsets[p] : idx.offsets[p + 1]]
                assert len(set(ids.tolist())) == len(ids)

    def test_deterministic(self, small_data):
        X, _ = small_data
        a = build(X, c=10, policy="soar", s=2, seed=5, lam=1.0)
        b = build(X, c=10, policy="soar", s=2, seed=5, lam=1.0)
        assert serialize(a) == serialize(b)

    def test_bad_policy_rejected(self, small_data):
        X, _ = small_data
        with pytest.raises(ValueError):
            build(X, c=4, policy="double", s=2, seed=0)

    def test_single_partition_none_policy(self):
        rng = np.random.default_rng(73)
        X = Dataset(rng.standard_normal((50, 4)))
        idx = build(X, c=1, policy="none", s=2, seed=0)
        assert idx.posting_sizes().tolist() == [50]


class TestSearch:
    def test_full_probe_full_rerank_is_exact(self, small_data, indices):
        X, Q = small_data
        for policy, idx in indices.items():
            params = SearchParams(k=10, probes=idx.c, rerank=X.n)
            for q in Q[:10]:
                got = search(idx, q, params)
                want = brute_force_mips(q, X, 10)
                assert [nb.id for nb in got.neighbors] == [nb.id for nb in want], policy
                assert [nb.score for nb in got.neighbors] == [nb.score for nb in want]

    def test_no_duplicate_ids(self, small_data, indices):
        _, Q = small_data
        idx = indices["soar"]
        for probes in (1, 3, 10):
            for q in Q:
                got = search(idx, q, SearchParams(k=20, probes=probes, rerank=1200))
                ids = [nb.id for nb in got.neighbors]
                assert len(ids) == len(set(ids))

    def test_recall_non_decreasing_in_probes(self, small_data, indices):
        X, Q = small_data
        idx = indices["soar"]
        truth = [set(nb.id for nb in brute_force_mips(q, X, 10)) for q in Q]
        recalls = []
        for probes in (1, 2, 4, 8, 10):
            hit = 0
            for q, t in zip(Q, truth):
                got = search(idx, q, SearchParams(k=10, probes=probes, rerank=X.n))
                hit += len({nb.id for nb in got.neighbors} & t)
            recalls.append(hit)
        assert recalls == sorted(recalls)

    def test_probes_one_only_top_partition_members(self, small_data, indices):
        _, Q = small_data
        idx = indices["naive"]
        centers = idx.codebook.centers.astype(np.float64)
        for q in Q[:10]:
            top_part = int(np.argmax(centers @ q))
            allowed = set(idx.ids[idx.offsets[top_part] : idx.offsets[top_part + 1]].tolist())
            got = search(idx, q, SearchParams(k=5, probes=1, rerank=1200))
            assert {nb.id for nb in got.neighbors} <= allowed
            assert got.datapoints_scanned == len(allowed)

    def test_scanned_counts_duplicates(self, small_data, indices):
        _, Q = small_data
        idx = indices["soar"]
        sizes = idx.posting_sizes()
        centers = idx.codebook.centers.astype(np.float64)
        q = Q[0]
        order = np.lexsort((np.arange(idx.c), -(centers @ q).astype(np.float32)))
        got = search(idx, q, SearchParams(k=5, probes=4, rerank=100))
        assert got.datapoints_scanned == int(sizes[order[:4]].sum())

    def test_budget_stops_before_overflow(self, small_data, indices):
        _, Q = small_data
        idx = indices["soar"]
        sizes = idx.posting_sizes()
        centers = idx.codebook.centers.astype(np.float64)
        q = Q[1]
        order = np.lexsort((np.arange(idx.c), -(centers @ q).astype(np.float32)))
        cum = np.cumsum(sizes[order])
        budget = int(cum[2] + 1)  # room for three partitions but not the fourth
        got = search(idx, q, SearchParams(k=5, budget=budget))
        assert got.datapoints_scanned == int(cum[2])

    def test_budget_smaller_than_first_partition(self, small_data, indices):
        _, Q = small_data
        got = search(indices["soar"], Q[2], SearchParams(k=5, budget=0))
        assert got.neighbors == [] and got.datapoints_scanned == 0

    def test_probes_beyond_c_clamped(self, small_data, indices):
        X, Q = small_data
        idx = indices["none"]
        a = search(idx, Q[3], SearchParams(k=5, probes=idx.c, rerank=X.n))
        b = search(idx, Q[3], SearchParams(k=5, probes=idx.c + 50, rerank=X.n))
        assert [nb.id for nb in a.neighbors] == [nb.id for nb in b.neighbors]

    def test_k_out_of_range(self, small_data, indices):
        _, Q = small_data
        with pytest.raises(ValueError):
            search(indices["none"], Q[0], SearchParams(k=0, probes=1))
        with pytest.raises(ValueError):
            search(indices["none"], Q[0], SearchParams(k=1201, probes=1))

    def test_needs_probes_or_budget(self, small_data, indices):
        _, Q = small_data
        with pytest.raises(ValueError):
            search(indices["none"], Q[0], SearchParams(k=5))

    @pytest.mark.parametrize("rerank", [0, -1])
    def test_rerank_below_one_rejected(self, small_data, indices, rerank):
        _, Q = small_data
        for idx in indices.values():
            for scan in ({"probes": 3}, {"budget": 0}):
                with pytest.raises(ValueError, match="rerank must be at least 1"):
                    search(idx, Q[0], SearchParams(k=5, rerank=rerank, **scan))

    @pytest.mark.parametrize("field,value,message", [("k", 0, "k must be at least 1"),
                                                     ("k", -1, "k must be at least 1"),
                                                     ("probes", 0, "probes must be at least 1"),
                                                     ("rerank", 0, "rerank must be at least 1"),
                                                     ("budget", -1, "budget must be non-negative")])
    def test_params_checked_when_built(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SearchParams(**{"k": 5, field: value})

    def test_needs_probes_or_budget_when_built(self):
        with pytest.raises(ValueError, match="need probes or budget"):
            SearchParams(k=5)
        with pytest.raises(ValueError, match="need probes or budget"):
            SearchParams(k=5, rerank=7)

    def test_default_rerank(self):
        assert SearchParams(k=3, probes=1).resolved_rerank() == 100
        assert SearchParams(k=50, budget=0).resolved_rerank() == 500
        assert SearchParams(k=5, probes=1, rerank=7).resolved_rerank() == 7

    def test_dimension_mismatch(self, indices):
        with pytest.raises(ValueError):
            search(indices["none"], np.ones(5), SearchParams(k=1, probes=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, small_data, indices, bad):
        _, Q = small_data
        q = Q[0].copy()
        q[3] = bad
        for idx in indices.values():
            with pytest.raises(ValueError, match="NaN or Inf"):
                search(idx, q, SearchParams(k=5, probes=3))


class TestSerialization:
    def test_roundtrip_bit_exact(self, indices):
        for policy, idx in indices.items():
            blob = serialize(idx)
            again = serialize(deserialize(blob))
            assert blob == again, policy

    def test_roundtrip_preserves_everything(self, indices):
        idx = indices["soar"]
        out = deserialize(serialize(idx))
        np.testing.assert_array_equal(out.codebook.centers, idx.codebook.centers)
        np.testing.assert_array_equal(out.pq_book.centers, idx.pq_book.centers)
        np.testing.assert_array_equal(out.full_store.data, idx.full_store.data)
        np.testing.assert_array_equal(out.assignment.primary, idx.assignment.primary)
        np.testing.assert_array_equal(out.assignment.spilled, idx.assignment.spilled)
        assert (out.policy, out.lam, out.seed) == (idx.policy, idx.lam, idx.seed)
        np.testing.assert_array_equal(out.offsets, idx.offsets)
        for p in range(idx.c):
            rows = slice(idx.offsets[p], idx.offsets[p + 1])
            np.testing.assert_array_equal(out.ids[rows], idx.ids[rows])
            np.testing.assert_array_equal(out.codes[rows], idx.codes[rows])

    def test_file_roundtrip(self, indices, tmp_path):
        path = tmp_path / "x.soar"
        save(indices["naive"], path)
        out = load(path)
        assert serialize(out) == serialize(indices["naive"])

    def test_failed_save_keeps_previous_file(self, indices, tmp_path, monkeypatch, fill_disk):
        path = tmp_path / "x.soar"
        save(indices["none"], path)
        before = path.read_bytes()
        fill_disk()
        with pytest.raises(OSError, match="no space"):
            save(indices["soar"], path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.soar"]
        save(indices["soar"], path)
        assert path.read_bytes() == serialize(indices["soar"])
        assert [p.name for p in tmp_path.iterdir()] == ["x.soar"]

    def test_save_syncs_before_replace(self, indices, tmp_path, monkeypatch):
        # a crash after the rename must not find the new name on a file
        # whose bytes never reached the disk
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(dst).name))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "x.soar"
        save(indices["soar"], path)
        size = len(serialize(indices["soar"]))
        assert calls == [("fsync", size), ("replace", "x.soar")]

    def test_spill_size_delta_is_exact(self, small_data, indices):
        X, _ = small_data
        none_size = len(serialize(indices["none"]))
        code_bytes = indices["none"].pq_book.code_bytes
        for policy in ("naive", "soar"):
            spilled_size = len(serialize(indices[policy]))
            assert spilled_size - none_size == X.n * (4 + code_bytes)

    def test_header_size_fixed(self):
        assert HEADER_BYTES == 52

    def test_bad_magic(self, indices):
        blob = bytearray(serialize(indices["none"]))
        blob[:4] = b"WHAT"
        with pytest.raises(IndexFormatError, match="header"):
            deserialize(bytes(blob))

    @pytest.mark.parametrize("version", [1, 99])
    def test_bad_version(self, indices, version):
        blob = bytearray(serialize(indices["none"]))
        blob[4:6] = version.to_bytes(2, "little")
        with pytest.raises(IndexFormatError, match=f"header: unsupported version {version}"):
            deserialize(bytes(blob))

    @pytest.mark.parametrize("policy,lam", [("soar", -1.0), ("soar", float("nan")),
                                            ("soar", float("inf")), ("none", 2.0)])
    def test_bad_lambda(self, indices, policy, lam):
        blob = bytearray(serialize(indices[policy]))
        blob[36:44] = struct.pack("<d", lam)  # after magic, version, policy, reserved and six sizes
        with pytest.raises(IndexFormatError, match="header: lambda"):
            deserialize(bytes(blob))

    def test_truncated_postings(self, indices):
        blob = serialize(indices["soar"])
        cut = len(blob) - indices["soar"].n * indices["soar"].d * 4 - 100
        with pytest.raises(IndexFormatError, match="posting lists|full store"):
            deserialize(blob[:cut])

    def test_corrupt_length_field(self, indices):
        idx = indices["none"]
        blob = bytearray(serialize(idx))
        # partition 0's spill count, in the counts block right after the fixed sections
        off = HEADER_BYTES + 4 * idx.c * idx.d + 4 * idx.pq_book.centers.size + 4
        np_len = int.from_bytes(blob[off : off + 4], "little")
        blob[off : off + 4] = (np_len + 7).to_bytes(4, "little")
        with pytest.raises(IndexFormatError):
            deserialize(bytes(blob))

    def test_trailing_garbage(self, indices):
        blob = serialize(indices["none"]) + b"\x00\x01"
        with pytest.raises(IndexFormatError, match="trailing"):
            deserialize(blob)

    def test_error_names_section(self, indices):
        blob = serialize(indices["none"])
        try:
            deserialize(blob[: HEADER_BYTES + 10])
        except IndexFormatError as exc:
            assert exc.section == "codebook"
        else:
            pytest.fail("expected IndexFormatError")


class TestLoadReadsAssignment:
    @pytest.mark.parametrize("policy", ["none", "naive", "soar"])
    def test_load_reads_built_table(self, indices, tmp_path, monkeypatch, policy):
        import soar.index

        idx = indices[policy]
        path = tmp_path / "x.soar"
        save(idx, path)
        calls = []
        real = soar.index.assign_primary

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(soar.index, "assign_primary", counted)
        out = load(path).assignment
        assert calls == []
        built = idx.assignment
        assert (out.policy, out.lam) == (built.policy, built.lam)
        np.testing.assert_array_equal(out.primary, built.primary)
        if policy == "none":
            assert out.spilled is None and built.spilled is None
        else:
            np.testing.assert_array_equal(out.spilled, built.spilled)

    def test_rows_primaries_first(self, indices):
        for idx in indices.values():
            for p in range(idx.c):
                ids = idx.ids[idx.offsets[p] : idx.offsets[p + 1]]
                primaries = np.sort(np.flatnonzero(idx.assignment.primary == p))
                np.testing.assert_array_equal(ids[: primaries.size], primaries)


class TestCraftedPostings:
    """Blobs that are well formed except for one posting-section fault."""

    @staticmethod
    def sections(idx):
        """The serialized index as a bytearray, with the byte offsets of its
        counts block and its ids."""
        blob = bytearray(serialize(idx))
        counts_at = HEADER_BYTES + 4 * idx.c * idx.d + 4 * idx.pq_book.centers.size
        return blob, counts_at, counts_at + 8 * idx.c

    def test_counts_not_summing_to_n(self, indices):
        idx = indices["soar"]
        blob, counts_at, _ = self.sections(idx)
        # move one row from partition 0's primaries to its spills: sizes and length unchanged
        counts = np.frombuffer(blob, "<u4", 2, counts_at).copy()
        assert counts[0] > 0
        blob[counts_at : counts_at + 8] = (counts + [-1, 1]).astype("<u4").tobytes()
        with pytest.raises(IndexFormatError, match="posting lists: counts sum to"):
            deserialize(bytes(blob))

    def test_primary_and_spill_in_one_partition(self, indices):
        idx = indices["soar"]
        blob, counts_at, ids_at = self.sections(idx)
        counts = np.frombuffer(blob, "<u4", 2 * idx.c, counts_at).reshape(idx.c, 2)
        spill_runs = [slice(idx.offsets[p] + counts[p, 0], idx.offsets[p + 1]) for p in range(idx.c)]
        # swap the spill entries of u (primary p, spill q) and of v (spill p),
        # keeping both spill runs sorted: u then spills into its own primary
        u = int(np.flatnonzero(counts[idx.assignment.primary, 1] > 0)[0])
        p, q = idx.assignment.primary[u], idx.assignment.spilled[u]
        ids = idx.ids.copy()
        v = ids[spill_runs[p]][0]
        for run, old, new in ((spill_runs[q], u, v), (spill_runs[p], v, u)):
            run_ids = ids[run].copy()
            run_ids[run_ids == old] = new
            ids[run] = np.sort(run_ids)
        blob[ids_at : ids_at + 4 * ids.size] = ids.astype("<u4").tobytes()
        with pytest.raises(IndexFormatError, match="posting lists: an id's primary and spill share"):
            deserialize(bytes(blob))

    def test_ids_out_of_order_in_a_run(self, indices):
        idx = indices["soar"]
        blob, counts_at, ids_at = self.sections(idx)
        assert np.frombuffer(blob, "<u4", 1, counts_at)[0] >= 2
        ids = idx.ids.copy()
        ids[[0, 1]] = ids[[1, 0]]  # the first two primaries of partition 0
        blob[ids_at : ids_at + 4 * ids.size] = ids.astype("<u4").tobytes()
        with pytest.raises(IndexFormatError, match="posting lists: partition 0 ids not strictly"):
            deserialize(bytes(blob))


class TestEmptyPartitions:
    """Duplicate-heavy data: 5 distinct rows at c=12 leave partitions empty,
    so adjacent posting offsets are equal."""

    @pytest.fixture(scope="class")
    def dup(self):
        rng = np.random.default_rng(77)
        X = Dataset(np.repeat(rng.standard_normal((5, 8)), 40, axis=0).astype(np.float32))
        Q = rng.standard_normal((6, 8))
        built = {policy: build(X, c=12, policy=policy, s=2, seed=1) for policy in ("none", "soar")}
        return X, Q, built

    def test_some_partitions_empty(self, dup):
        _, _, built = dup
        for idx in built.values():
            assert (idx.posting_sizes() == 0).sum() >= 5
            assert np.any(idx.offsets[1:] == idx.offsets[:-1])

    def test_roundtrip(self, dup):
        _, _, built = dup
        for policy, idx in built.items():
            blob = serialize(idx)
            out = deserialize(blob)
            assert serialize(out) == blob, policy
            np.testing.assert_array_equal(out.offsets, idx.offsets)
            np.testing.assert_array_equal(out.assignment.primary, idx.assignment.primary)

    def test_search_over_empty_partitions(self, dup):
        X, Q, built = dup
        for idx in built.values():
            sizes = idx.posting_sizes()
            centers = idx.codebook.centers.astype(np.float64)
            for q in Q:
                order = np.lexsort((np.arange(idx.c), -(centers @ q).astype(np.float32)))
                for probes in range(1, idx.c + 1):
                    got = search(idx, q, SearchParams(k=10, probes=probes, rerank=X.n))
                    assert got.datapoints_scanned == int(sizes[order[:probes]].sum())
                want = brute_force_mips(q, X, 10)
                assert [(nb.id, nb.score) for nb in got.neighbors] == [
                    (nb.id, nb.score) for nb in want
                ]

    def test_budget_search(self, dup):
        X, Q, built = dup
        for idx in built.values():
            sizes = idx.posting_sizes()
            centers = idx.codebook.centers.astype(np.float64)
            for q in Q:
                order = np.lexsort((np.arange(idx.c), -(centers @ q).astype(np.float32)))
                cum = np.cumsum(sizes[order])
                for budget in (0, int(cum[0]), int(cum[1]) + 1, int(cum[-1])):
                    got = search(idx, q, SearchParams(k=5, budget=budget))
                    assert got.datapoints_scanned == int(cum[cum <= budget].max(initial=0))
                    assert len(got.neighbors) == (5 if got.datapoints_scanned else 0)
