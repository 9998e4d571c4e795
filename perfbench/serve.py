"""Serving process: load a saved index, answer one part of the queries in
a closed loop (one client, each query sent after the previous returns),
check every answer, and print one JSON line of measurements.

It runs as a fresh interpreter so its peak RSS covers only loading and
serving, never the build:

    python3 perfbench/serve.py --index I --queries Q.npy --truth T.npy \
        --k 10 --probes 32 --seconds 2.5 --trace 0 --part 0 --parts 4
"""

import argparse
import json
import os
import resource
import statistics
import time

import numpy as np

import soar.core
import soar.index
import spans

# The first queries of each slice, held to brute force (criterion 4).
ORACLE_QUERIES = 3
TRACE_BLOCK = 25


def check_answer(result, q, X: np.ndarray, k: int) -> str | None:
    """None when the answer is k distinct ids ordered by (score desc, id
    asc) whose scores equal core.batch_inner_products; else the problem."""
    ids = [nb.id for nb in result.neighbors]
    scores = [nb.score for nb in result.neighbors]
    if len(ids) != k:
        return f"{len(ids)} neighbors, wanted {k}"
    if len(set(ids)) != k:
        return "duplicate ids"
    if min(ids) < 0 or max(ids) >= X.shape[0]:
        return "id out of range"
    for i in range(k - 1):
        if not (scores[i] > scores[i + 1] or (scores[i] == scores[i + 1] and ids[i] < ids[i + 1])):
            return f"positions {i} and {i + 1} out of (score desc, id asc) order"
    exact = soar.core.batch_inner_products(q, X[np.array(ids)])
    if exact.astype(np.float64).tolist() != scores:
        return "scores differ from exact inner products"
    return None


class Checker:
    """Checks each query's first answer in full, counts its hits in the
    exact top-k, and requires every later answer to the same query to be
    identical."""

    def __init__(self, Q, X, truth, k):
        self.Q, self.X, self.truth, self.k = Q, X, truth, k
        self.first: list = [None] * Q.shape[0]
        self.hits = 0
        self.scanned = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def __call__(self, qi: int, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            self.fail(f"query {qi} raised {result!r}")
            return
        # a digest, not the answer itself, so the checks add little to RSS
        answer = hash(tuple((nb.id, nb.score) for nb in result.neighbors))
        if self.first[qi] is not None:
            if answer != self.first[qi]:
                self.fail(f"query {qi}: answer changed between passes")
            return
        self.first[qi] = answer
        problem = check_answer(result, self.Q[qi], self.X, self.k)
        if problem:
            self.fail(f"query {qi}: {problem}")
        self.hits += len({nb.id for nb in result.neighbors} & set(self.truth[qi].tolist()))
        self.scanned += result.datapoints_scanned


def closed_loop(idx, Q, qids, params, seconds: float, on_answer, recorder=None) -> list:
    """Answer the queries `qids` in whole passes, in order, until `seconds`
    have passed (at least one pass). Returns (query id, latency in s,
    traced) per answer.

    With a recorder, blocks of TRACE_BLOCK queries alternate untraced and
    traced, so both kinds see the same host speed, which can drift within
    seconds on a shared machine. Which blocks are traced flips every pass,
    and the loop makes an even number of passes (at least two), so every
    query is answered as often traced as untraced."""
    answers = []
    started = time.perf_counter()
    passes, tracing = 0, False
    try:
        while (passes == 0 or time.perf_counter() - started < seconds
               or (recorder is not None and passes % 2 == 1)):
            for j, qi in enumerate(qids):
                if recorder is not None and tracing != ((j // TRACE_BLOCK + passes) % 2 == 1):
                    tracing = not tracing
                    if tracing:
                        recorder.__enter__()
                    else:
                        recorder.restore()
                if tracing:
                    recorder.query = qi
                t0 = time.perf_counter()
                try:
                    result = soar.index.search(idx, Q[qi], params)
                except Exception as exc:  # a raising query is a failed operation
                    result = exc
                answers.append((qi, time.perf_counter() - t0, tracing))
                on_answer(qi, result)
            passes += 1
    finally:
        if recorder is not None:
            recorder.restore()
    return answers


def tracing_overhead_ms(answers) -> float:
    """Tracing cost per query in ms. Each query is compared with itself:
    its mean traced latency minus its mean untraced latency. Host drift
    between passes enters that difference with opposite signs for queries
    first answered traced and those first answered untraced, so the two
    groups' medians are averaged."""
    times: dict = {}
    traced_first: dict = {}
    for qi, latency, traced in answers:
        times.setdefault((qi, traced), []).append(latency)
        traced_first.setdefault(qi, traced)
    groups: dict = {True: [], False: []}
    for qi, first in traced_first.items():
        cost = statistics.fmean(times[qi, True]) - statistics.fmean(times[qi, False])
        groups[first].append(cost)
    return 1e3 * statistics.fmean(statistics.median(g) for g in groups.values() if g)


def oracle_check(idx, Q, qids, k: int, checker: Checker) -> None:
    """Criterion 4: probes=c with rerank=n must reproduce brute_force_mips."""
    params = soar.index.SearchParams(k=k, probes=idx.c, rerank=idx.n)
    for qi in qids[:ORACLE_QUERIES]:
        checker.attempted += 1
        want = [(nb.id, nb.score) for nb in soar.core.brute_force_mips(Q[qi], idx.full_store, k)]
        try:
            got = [(nb.id, nb.score) for nb in soar.index.search(idx, Q[qi], params).neighbors]
        except Exception as exc:  # a raising query is a failed operation
            got = repr(exc)
        if got != want:
            checker.fail(f"query {qi}: exhaustive search differs from brute_force_mips")


def serve(index_path, Q, truth, k, probes, seconds, part=0, parts=1, trace=False,
          spans_out=None) -> dict:
    """Load the index, answer part `part` of `parts` contiguous slices of
    the queries, and return the raw measurements; the caller merges the
    parts."""
    t0 = time.perf_counter()
    idx = soar.index.load(index_path)
    load_s = time.perf_counter() - t0
    X = idx.full_store.data
    qids = np.array_split(np.arange(Q.shape[0]), parts)[part].tolist()
    params = soar.index.SearchParams(k=k, probes=probes)
    checker = Checker(Q, X, truth, k)
    out = {}
    if trace:
        recorder = spans.Recorder()
        with recorder:
            idx = soar.index.load(index_path)  # one traced load
        answers = closed_loop(idx, Q, qids, params, seconds, checker, recorder)
        out["totals"] = spans.to_dict(spans.Totals(recorder.spans, recorder.wrapped))
        out["missing"] = recorder.missing
        out["traced_queries"] = sum(traced for _, _, traced in answers)
        out["overhead_ms"] = tracing_overhead_ms(answers)
        if spans_out:
            recorder.write(spans_out)
        latencies = [t for _, t, traced in answers if not traced]
    else:
        latencies = [t for _, t, _ in closed_loop(idx, Q, qids, params, seconds, checker)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    oracle_check(idx, Q, qids, k, checker)
    sizes = idx.posting_sizes()
    out.update(
        load_s=load_s,
        latencies_ms=[1e3 * t for t in latencies],
        hits=checker.hits,
        datapoints_scanned=checker.scanned,
        posting_max_over_mean=float(sizes.max() / sizes.mean()),
        bytes_per_vector=os.path.getsize(index_path) / idx.n,
        serve_rss_mb=rss_mb,
        attempted=checker.attempted,
        failed=checker.failed,
        errors=checker.errors,
    )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index", required=True)
    parser.add_argument("--queries", required=True)
    parser.add_argument("--truth", required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--probes", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    out = serve(args.index, np.load(args.queries), np.load(args.truth), args.k, args.probes,
                args.seconds, args.part, args.parts, bool(args.trace), args.spans_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
