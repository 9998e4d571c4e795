import mmap
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import soar.index
from soar.core import Dataset, brute_force_mips
from soar.index import (
    HEADER_BYTES,
    IndexFormatError,
    SearchParams,
    SoarIndex,
    build,
    deserialize,
    load,
    memory_accounting,
    save,
    search,
    sections,
    serialize,
)
from soar.vq import assign_primary


@pytest.fixture(scope="module")
def small_data():
    rng = np.random.default_rng(71)
    X = Dataset(rng.standard_normal((1200, 12)).astype(np.float32))
    Q = rng.standard_normal((40, 12))
    return X, Q


def _sections(idx) -> list[tuple[str, int]]:
    return sections(idx.n, idx.d, idx.c, idx.pq_book.s, spilled=idx.assignment.spilled is not None)


def _section_starts(idx) -> list[int]:
    """The byte offset of each section of idx's file, in `sections` order,
    then the file's length."""
    return np.cumsum([0] + [size for _, size in _sections(idx)]).tolist()


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

    @pytest.mark.parametrize("policy, c, s, message", [
        ("none", 4, 0, "s must be at least 1"),
        ("soar", 4, 0, "s must be at least 1"),
        ("naive", 1, 2, "spilled assignment needs at least 2 partitions"),
        ("soar", 1, 2, "spilled assignment needs at least 2 partitions"),
    ], ids=["s0-none", "s0-soar", "c1-naive", "c1-soar"])
    def test_bad_sizes_fail_before_training(self, small_data, monkeypatch, policy, c, s, message):
        def no_training(*args, **kwargs):
            raise AssertionError("train_kmeans ran")

        monkeypatch.setattr(soar.index, "train_kmeans", no_training)
        with pytest.raises(ValueError, match=message):
            build(small_data[0], c=c, policy=policy, s=s, seed=0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_bad_lambda_fails_before_training(self, small_data, monkeypatch, lam):
        def no_training(*args, **kwargs):
            raise AssertionError("train_kmeans ran")

        monkeypatch.setattr(soar.index, "train_kmeans", no_training)
        with pytest.raises(ValueError, match="requires a finite lam >= 0"):
            build(small_data[0], c=4, policy="soar", s=2, seed=0, lam=lam)

    def test_assignment_must_match_postings(self, small_data, indices):
        # an unspilled table around spilled postings would write a file
        # that deserialize rejects
        idx = indices["soar"]
        table = assign_primary(small_data[0], idx.codebook)
        with pytest.raises(ValueError, match="assignment table"):
            SoarIndex(idx.codebook, idx.pq_book, idx.offsets, idx.ids, idx.codes,
                      idx.full_store, idx.seed, table)

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
        off = _section_starts(idx)[3] + 4  # partition 0's spill count, in the counts block
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


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("section", ["codebook", "pq codebook", "full store"])
    def test_non_finite_float_names_section(self, indices, section, value):
        idx = indices["soar"]
        blob = bytearray(serialize(idx))
        starts = _section_starts(idx)
        at = {"codebook": starts[1], "pq codebook": starts[2], "full store": starts[6]}[section]
        at += 4 * 5  # the section's sixth float
        blob[at : at + 4] = np.float32(value).astype("<f4").tobytes()
        with pytest.raises(IndexFormatError) as info:
            deserialize(bytes(blob))
        assert info.value.section == section


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


def _mapping(arr: np.ndarray):
    """The object that owns arr's memory, found through its .base chain."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


class TestMappedLoad:
    """load maps the file read-only and serves ids, codes and the full store
    as views of the mapping."""

    @pytest.mark.parametrize("policy", ["none", "naive", "soar"])
    def test_arrays_are_views_of_one_mapping(self, indices, tmp_path, policy):
        path = tmp_path / "x.soar"
        save(indices[policy], path)
        out = load(path)
        arrays = (out.ids, out.codes, out.full_store.data)
        mapping = _mapping(out.ids)
        assert isinstance(mapping, mmap.mmap)
        whole = np.frombuffer(mapping, dtype=np.uint8)
        for arr in arrays:
            assert _mapping(arr) is mapping
            assert np.shares_memory(arr, whole)
        assert serialize(out) == path.read_bytes()

    def test_unaligned_full_store_is_copied(self, tmp_path):
        """With 61 entries of 1 code byte the full store starts 1 byte off a
        4-byte boundary; it is then copied, aligned and read-only, and ids
        and codes stay views."""
        X = Dataset(np.random.default_rng(4).standard_normal((61, 6)).astype(np.float32))
        built = build(X, c=4, policy="none", s=4, seed=1)
        assert built.pq_book.code_bytes == 1
        path = tmp_path / "x.soar"
        save(built, path)
        out = load(path)
        store = out.full_store.data
        assert store.flags.aligned and not store.flags.writeable and store.base is None
        assert isinstance(_mapping(out.ids), mmap.mmap) and _mapping(out.codes) is _mapping(out.ids)
        assert serialize(out) == path.read_bytes()
        params = SearchParams(k=3, probes=4)
        for q in np.random.default_rng(5).standard_normal((5, 6)):
            assert search(out, q, params).neighbors == search(built, q, params).neighbors

    def test_arrays_refuse_writes(self, indices, tmp_path):
        path = tmp_path / "x.soar"
        save(indices["soar"], path)
        out = load(path)
        for arr in (out.ids, out.codes, out.full_store.data):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
            with pytest.raises(ValueError):
                arr.setflags(write=True)

    def test_served_index_survives_save_over_its_path(self, small_data, indices, tmp_path):
        _, Q = small_data
        path = tmp_path / "x.soar"
        save(indices["soar"], path)
        served = load(path)
        params = SearchParams(k=5, probes=3)
        before = [search(served, q, params).neighbors for q in Q]
        blob = serialize(served)
        save(indices["none"], path)  # replaces the file the index is mapped from
        assert [search(served, q, params).neighbors for q in Q] == before
        assert serialize(served) == blob
        assert serialize(load(path)) == serialize(indices["none"])

    @pytest.mark.parametrize("wrap", [bytearray, lambda blob: memoryview(bytearray(blob))],
                             ids=["bytearray", "memoryview"])
    def test_writable_buffer_is_copied(self, indices, wrap):
        idx = indices["soar"]
        buf = wrap(serialize(idx))
        out = deserialize(buf)
        buf[HEADER_BYTES:] = bytes(len(buf) - HEADER_BYTES)  # zero everything after the header
        assert serialize(out) == serialize(idx)


class TestCraftedPostings:
    """Blobs that are well formed except for one posting-section fault."""

    @staticmethod
    def sections(idx):
        """The serialized index as a bytearray, with the byte offsets of its
        counts block and its ids."""
        starts = _section_starts(idx)
        return bytearray(serialize(idx)), starts[3], starts[4]

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

    @pytest.mark.parametrize("role,name", [(0, "primary"), (1, "spill")])
    def test_id_missing_from_a_role(self, indices, role, name):
        idx = indices["soar"]
        blob, counts_at, ids_at = self.sections(idx)
        counts = np.frombuffer(blob, "<u4", 2 * idx.c, counts_at).reshape(idx.c, 2)
        bounds = [idx.offsets[:-1], idx.offsets[:-1] + counts[:, 0], idx.offsets[1:]]
        runs = [slice(bounds[role][p], bounds[role + 1][p]) for p in range(idx.c)]
        p, q = [p for p, run in enumerate(runs) if run.stop > run.start][:2]
        # p's run of this role swaps its first id u for q's first id v, kept
        # sorted and in range: u is then missing from the role, v repeated
        ids = idx.ids.copy()
        ids[runs[p]] = np.sort(np.append(ids[runs[p]][1:], ids[runs[q]][0]))
        blob[ids_at : ids_at + 4 * ids.size] = ids.astype("<u4").tobytes()
        with pytest.raises(IndexFormatError,
                           match=f"posting lists: each id must have exactly one {name} entry$"):
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


class TestSectionTable:
    """`sections` is the one statement of the file layout: serialize writes
    it, deserialize reads it and memory_accounting derives from it."""

    @pytest.fixture(scope="class")
    def odd_m(self):
        X = Dataset(np.random.default_rng(13).standard_normal((300, 5)).astype(np.float32))
        return build(X, c=4, policy="soar", s=2, seed=3)  # m = 3 nibbles in 2 code bytes

    @pytest.fixture(params=["none", "naive", "soar", "odd m"])
    def idx(self, request, indices, odd_m):
        return odd_m if request.param == "odd m" else indices[request.param]

    def test_file_size_is_the_table_sum(self, idx):
        assert len(serialize(idx)) == sum(size for _, size in _sections(idx))

    def test_each_section_at_its_offset(self, idx):
        blob, table = serialize(idx), _sections(idx)
        names = ["header", "codebook", "pq codebook"] + ["posting lists"] * 3 + ["full store"]
        assert [name for name, _ in table] == names
        assert table[0][1] == HEADER_BYTES
        roles = [idx.assignment.primary, idx.assignment.spilled]
        counts = np.stack([np.bincount(np.zeros(0, int) if part is None else part, minlength=idx.c)
                           for part in roles], axis=1)  # (primaries, spills) per partition
        want = [idx.codebook.centers.astype("<f4"), idx.pq_book.centers.astype("<f4"),
                counts.astype("<u4"), idx.ids.astype("<u4"), idx.codes, idx.full_store.data]
        starts = _section_starts(idx)
        for start, end, arr in zip(starts[1:-1], starts[2:], want, strict=True):
            assert blob[start:end] == arr.tobytes()

    def test_accounting_reads_the_table(self, idx):
        *_, (_, id_bytes), (_, code_bytes), (_, store_bytes) = _sections(idx)
        acct = memory_accounting(idx.n, idx.d, idx.pq_book.s)
        assert acct.per_point_pq == (id_bytes + code_bytes) / idx.ids.shape[0]
        assert acct.per_point_full == store_bytes / idx.n

    def test_cut_in_each_section_names_it(self, idx):
        blob = serialize(idx)
        starts = _section_starts(idx)
        for (name, size), end in zip(_sections(idx), starts[1:]):
            with pytest.raises(IndexFormatError) as info:
                deserialize(blob[: end - 1])
            assert str(info.value) == f"{name}: truncated: wanted {size} bytes, {size - 1} left"


class TestMemoryAccounting:
    def test_glove_like_per_point_bytes(self):
        acct = memory_accounting(n=1_000_000, d=100, s=2, spilled=True)
        assert acct.per_point_pq == 29  # 4-byte id + 25 packed code bytes
        assert acct.per_point_full == 400
        assert acct.soar_overhead_bytes == 29_000_000

    def test_float32_relative_increase_near_one_seventeenth(self):
        acct = memory_accounting(n=10, d=100, s=2, spilled=True)
        assert acct.approx_relative_increase == pytest.approx(1.0 / 17.0)
        assert abs(acct.relative_increase - 0.059) < 0.005

    def test_unspilled_has_no_overhead(self):
        acct = memory_accounting(n=500, d=16, s=2, spilled=False)
        assert acct.soar_overhead_bytes == 0

    def test_padding_reported(self):
        acct = memory_accounting(n=10, d=5, s=2, spilled=True)
        assert acct.per_point_pq == 4 + 2  # 3 nibbles round up to 2 bytes

    def test_s_zero_rejected(self):
        with pytest.raises(ValueError):
            memory_accounting(n=10, d=4, s=0, spilled=True)
