import os
import sys
import threading
import time

import numpy as np
import pytest

import soar.core
from soar.core import (
    Dataset,
    Neighbor,
    batch_inner_products,
    brute_force_mips,
    ordered_map,
    rank,
)


class TestDataset:
    def test_basic_shape(self):
        X = Dataset(np.ones((3, 4)))
        assert (X.n, X.d) == (3, 4)
        assert X.data.dtype == np.float32

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Dataset([[1.0, np.nan]])
        with pytest.raises(ValueError):
            Dataset([[np.inf, 0.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_after_a_block_boundary(self, value):
        """The finite check runs in blocks of rows; the first row of the
        second block is checked too."""
        data = np.ones((soar.core._FINITE_ROWS + 5, 3), dtype=np.float32)
        data[soar.core._FINITE_ROWS, 1] = value
        with pytest.raises(ValueError, match="NaN or Inf"):
            Dataset(data)
        data[soar.core._FINITE_ROWS, 1] = 0.0
        assert Dataset(data).n == soar.core._FINITE_ROWS + 5

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Dataset(np.ones(5))
        with pytest.raises(ValueError):
            Dataset(np.ones((0, 3)))

    def test_immutable(self):
        X = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            X.data[0, 0] = 7.0

    def test_does_not_alias_caller_array(self):
        arr = np.ones((2, 2), dtype=np.float32)
        X = Dataset(arr)
        arr[0, 0] = 5.0
        assert X.data[0, 0] == 1.0


class TestInnerProduct:
    def test_hand_value(self):
        assert batch_inner_products([1.0, 2.0], [[3.0, 4.0]]).tolist() == [11.0]

    def test_orthogonal_is_zero(self):
        assert batch_inner_products([1.0, 0.0], [[0.0, 5.0]]).tolist() == [0.0]

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            a = rng.standard_normal(128)
            b = rng.standard_normal(128)
            expected = 0.0
            for x, y in zip(a, b):
                expected += float(x) * float(y)
            assert batch_inner_products(a, b[None, :])[0] == pytest.approx(expected, rel=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            batch_inner_products([1.0, 2.0], [[1.0, 2.0, 3.0]])


class TestNeighbor:
    def test_immutable(self):
        nb = Neighbor(3, 0.5)
        with pytest.raises(AttributeError):
            nb.score = 1.0
        with pytest.raises(AttributeError):
            nb.id = 4

    def test_repr(self):
        assert repr(Neighbor(3, 0.5)) == "Neighbor(id=3, score=0.5)"

    def test_hash_is_the_pair_hash(self):
        assert hash(Neighbor(3, 0.5)) == hash((3, 0.5))
        assert len({Neighbor(3, 0.5), Neighbor(id=3, score=0.5)}) == 1

    def test_equality(self):
        assert Neighbor(3, 0.5) == Neighbor(id=3, score=0.5)
        assert Neighbor(3, 0.5) != Neighbor(3, 0.25)
        assert Neighbor(3, 0.5) != Neighbor(4, 0.5)

    def test_is_the_pair(self):
        nb = Neighbor(3, 0.5)
        assert nb == (3, 0.5)
        ident, score = nb
        assert (ident, score) == (nb.id, nb.score) == (3, 0.5)


class TestBruteForceMips:
    def test_two_point_example(self):
        X = Dataset([[1.0, 0.0], [0.0, 1.0]])
        top = brute_force_mips([0.9, 0.1], X, k=1)
        assert top == [Neighbor(0, pytest.approx(0.9))]

    def test_k_equals_n_is_permutation(self):
        rng = np.random.default_rng(5)
        X = Dataset(rng.standard_normal((50, 8)))
        out = brute_force_mips(rng.standard_normal(8), X, k=50)
        assert sorted(nb.id for nb in out) == list(range(50))
        scores = [nb.score for nb in out]
        assert scores == sorted(scores, reverse=True)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(17)
        X = Dataset(rng.standard_normal((1000, 16)))
        for _ in range(5):
            q = rng.standard_normal(16)
            got = [nb.id for nb in brute_force_mips(q, X, k=10)]
            # independent oracle: python sort on (score desc, id asc)
            scored = [(float(np.float32(np.dot(q, X.data[i].astype(np.float64)))), i)
                      for i in range(X.n)]
            scored.sort(key=lambda t: (-t[0], t[1]))
            assert got == [i for _, i in scored[:10]]

    def test_tie_break_ascending_id(self):
        X = Dataset([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        out = brute_force_mips([1.0, 0.0], X, k=3)
        assert [nb.id for nb in out] == [0, 1, 2]

    def test_k_out_of_range(self):
        X = Dataset(np.ones((4, 2)))
        with pytest.raises(ValueError):
            brute_force_mips([1.0, 0.0], X, k=0)
        with pytest.raises(ValueError):
            brute_force_mips([1.0, 0.0], X, k=5)


class TestRank:
    def test_hand_count(self):
        X = Dataset([[2.0], [1.0], [3.0]])
        # scores 2, 1, 3 against q=1; v scores 2 -> two datapoints at >= 2
        assert rank([1.0], [2.0], X) == 2

    def test_top_neighbor_has_rank_one(self):
        rng = np.random.default_rng(23)
        X = Dataset(rng.standard_normal((200, 12)))
        q = rng.standard_normal(12)
        best = brute_force_mips(q, X, k=1)[0]
        assert rank(q, X.data[best.id], X) == 1

    def test_matches_counting_loop(self):
        rng = np.random.default_rng(29)
        X = Dataset(rng.standard_normal((300, 10)))
        for _ in range(5):
            q = rng.standard_normal(10)
            v = rng.standard_normal(10)
            sv = np.float32(np.dot(q, v))
            expected = sum(
                1 for i in range(X.n)
                if np.float32(np.dot(q, X.data[i].astype(np.float64))) >= sv
            )
            assert rank(q, v, X) == expected

    def test_monotone_in_score(self):
        rng = np.random.default_rng(31)
        X = Dataset(rng.standard_normal((100, 6)))
        q = rng.standard_normal(6)
        scores = batch_inner_products(q, X.data)
        order = np.argsort(-scores)
        ranks = [rank(q, X.data[i], X) for i in order]
        assert ranks == sorted(ranks)

    def test_dimension_mismatch(self):
        X = Dataset(np.ones((4, 3)))
        with pytest.raises(ValueError):
            rank([1.0, 2.0], [1.0, 2.0, 3.0], X)



class TestOrderedMap:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the affinity ordered_map sees to the given number of CPUs and,
        when given, its thread cap."""

        def set_cpus(count, most=None):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
            if most is not None:
                monkeypatch.setattr(soar.core, "_MAX_WORKERS", most)

        return set_cpus

    def test_results_in_input_order_when_units_finish_out_of_order(self, cpus):
        cpus(4, most=4)
        finished = []

        def unit(x):
            time.sleep(0.01 * (8 - x))  # early units finish last
            finished.append(x)
            return x * x

        assert ordered_map(unit, range(8)) == [x * x for x in range(8)]
        assert sorted(finished) == list(range(8))
        assert finished != sorted(finished)

    def test_exception_reaches_caller_and_stops_the_pool(self, cpus):
        cpus(4, most=4)
        before = threading.active_count()
        # Each of the first 4 units holds its own worker at the barrier. The
        # lowest of them on a helper thread raises; the others wait until
        # that helper has left ordered_map's worker loop, which it does only
        # after the error is recorded, so no further unit may start.
        barrier = threading.Barrier(4, timeout=10)
        threads = {}

        def unit(x):
            threads[x] = threading.current_thread()
            if x >= 4:
                return x
            barrier.wait()
            failing = min(i for i, t in threads.items() if t is not threading.main_thread())
            if x == failing:
                raise KeyError(f"unit {x}")
            threads[failing].join(timeout=10)
            return x

        with pytest.raises(KeyError, match="unit"):
            ordered_map(unit, range(20))
        assert threading.active_count() == before
        assert sorted(threads) == [0, 1, 2, 3]

    def test_empty_and_single_item_start_no_thread(self, cpus, monkeypatch):
        cpus(4)

        def no_threads(*args, **kwargs):
            raise AssertionError("ordered_map started a thread")

        monkeypatch.setattr(threading, "Thread", no_threads)
        callers = []

        def unit(x):
            callers.append(threading.current_thread())
            return x + 1

        assert ordered_map(unit, []) == []
        assert ordered_map(unit, [41]) == [42]
        assert callers == [threading.current_thread()]

    @pytest.mark.parametrize(
        "most, items, pool",
        [(8, 10, 4), (8, 3, 3), (None, 10, min(4, soar.core._MAX_WORKERS))],
    )
    def test_pool_is_affinity_capped_by_item_count_and_cap(self, cpus, most, items, pool):
        cpus(4, most)
        before = threading.active_count()
        # the first `pool` units run at once, or the barrier times out
        barrier = threading.Barrier(pool, timeout=10)
        lock = threading.Lock()
        idents, running, peak = set(), [0], [0]

        def unit(x):
            with lock:
                idents.add(threading.get_ident())
                running[0] += 1
                peak[0] = max(peak[0], running[0], threading.active_count() - before + 1)
            if x < pool:
                barrier.wait()
            with lock:
                running[0] -= 1
            return x

        assert ordered_map(unit, range(items)) == list(range(items))
        assert threading.get_ident() in idents
        assert len(idents) == pool
        assert peak[0] == pool
        assert threading.active_count() == before

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert soar.core._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert soar.core._cpu_count() == 1

    def test_every_unit_runs_once_under_fast_switching(self, cpus):
        cpus(8, most=8)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = ordered_map(lambda x: calls.append(x) or -x, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert out == [-x for x in range(3000)]
        assert sorted(calls) == list(range(3000))
