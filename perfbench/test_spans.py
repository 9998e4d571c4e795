"""Tests of the benchmark's own machinery: the span recorder changes no
result, restores what it wraps and reports a missing layer as absent; the
answer checks catch a wrong answer; the copied input generator matches the
acceptance suite's.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import data  # noqa: E402
import serve  # noqa: E402
import soar.core  # noqa: E402
import soar.index  # noqa: E402
import spans  # noqa: E402
from soar.core import Dataset, Neighbor  # noqa: E402
from soar.index import SearchParams, SearchResult  # noqa: E402


@pytest.fixture(scope="module")
def small():
    X, Q = data.fixed_shell_instance(3_000, 40, seed=3)
    return Dataset(X), Q


def _build_and_answer(X, Q):
    idx = soar.index.build(X, c=12, policy="soar", s=2, seed=1)
    blob = soar.index.serialize(idx)
    loaded = soar.index.deserialize(blob)
    params = SearchParams(k=10, probes=3)
    answers = [[(nb.id, nb.score) for nb in soar.index.search(loaded, q, params).neighbors]
               for q in Q]
    return blob, answers


def test_traced_run_returns_identical_ids_and_scores(small):
    X, Q = small
    originals = {attr: getattr(soar.index, attr) for attr in ("build", "search", "score_codes")}
    plain_blob, plain = _build_and_answer(X, Q)
    with spans.Recorder() as recorder:
        traced_blob, traced = _build_and_answer(X, Q)
    assert traced_blob == plain_blob
    assert traced == plain
    for attr, fn in originals.items():
        assert getattr(soar.index, attr) is fn
    totals = spans.Totals(recorder.spans, recorder.wrapped)
    assert totals.calls["index.search"] == len(Q)
    assert totals.calls["vq.train_kmeans"] == 1
    assert totals.count["pq.scan"] > 0


def test_missing_layer_is_absent_not_zero():
    layers = [("soar.index", "search", "index.search", None),
              ("soar.index", "no_such_stage", "pq.scan", None)]
    with spans.Recorder(layers) as recorder:
        pass
    assert recorder.missing == ["soar.index.no_such_stage"]
    assert not hasattr(soar.index, "no_such_stage")
    totals = spans.Totals(recorder.spans, recorder.wrapped)
    metrics, absent = spans.layer_metrics(totals, totals, queries=1)
    assert "pq.scan_ms" in absent and "pq.scan_ms" not in metrics
    assert metrics["index.search_self_ms"]["value"] == 0.0


def test_self_time_subtracts_children():
    # parent 0..100 ns holding children 10..30 and 40..90
    trace = [("a", 0, 100, -1, None, 1), ("b", 10, 30, 0, None, 1), ("b", 40, 90, 0, None, 1)]
    totals = spans.Totals(trace, {"a", "b"})
    assert totals.self_ns["a"] == 30
    assert totals.total_ns["b"] == 70
    assert spans.nested_calls(trace, "b", "a") == 2


def test_answer_checks_catch_wrong_answers(small):
    X, Q = small
    q = Q[0]
    good = soar.core.brute_force_mips(q, X, 5)
    assert serve.check_answer(SearchResult(good, 0), q, X.data, 5) is None
    swapped = [good[1], good[0]] + good[2:]
    assert "order" in serve.check_answer(SearchResult(swapped, 0), q, X.data, 5)
    off = [Neighbor(good[0].id, good[0].score + 1.0)] + good[1:]
    assert "exact" in serve.check_answer(SearchResult(off, 0), q, X.data, 5)
    assert "duplicate" in serve.check_answer(SearchResult(good[:4] + good[:1], 0), q, X.data, 5)
    assert "wanted" in serve.check_answer(SearchResult(good[:4], 0), q, X.data, 5)


def test_fixed_instance_matches_the_acceptance_suite():
    sys.path.insert(0, str(HERE.parent / "tests"))
    try:
        from test_acceptance import shell_mixture
    finally:
        sys.path.remove(str(HERE.parent / "tests"))
    X, Q = data.fixed_shell_instance(2_000, 50, seed=data.DATA_SEED)
    want_X, want_Q = shell_mixture(2_000, 50, data.DATA_SEED)
    assert np.array_equal(X, want_X.data) and np.array_equal(Q, want_Q.data)


def test_closed_loop_answers_each_query_traced_and_untraced(small):
    X, Q = small
    idx = soar.index.build(X, c=12, policy="soar", s=2, seed=1)
    checker = serve.Checker(Q, X.data, np.zeros((len(Q), 10), dtype=np.int64), 10)
    recorder = spans.Recorder()
    params = SearchParams(k=10, probes=3)
    answers = serve.closed_loop(idx, Q, range(len(Q)), params, 0.0, checker, recorder)
    assert checker.failed == 0 and checker.attempted == 2 * len(Q)
    for qi in range(len(Q)):
        assert sorted(traced for i, _, traced in answers if i == qi) == [False, True]
    assert not recorder._originals


def test_tracing_overhead_cancels_drift_between_passes():
    # 4 queries over 2 passes; pass 1 runs 1 ms slower, tracing costs 0.1 ms
    answers = []
    for p, drift in ((0, 0.0), (1, 1e-3)):
        for qi in range(4):
            traced = (qi < 2) == (p == 1)
            answers.append((qi, 0.01 + drift + (1e-4 if traced else 0.0), traced))
    assert serve.tracing_overhead_ms(answers) == pytest.approx(0.1)
