"""Search against a frozen reference.

The reference functions below are the original search and code scan, kept
verbatim: they deduplicate and fully sort every scanned entry, and index
the lookup table by (subspace, nibble), adding the partials subspace by
subspace. The library scans with one lookup per code byte, whose table
entry sums the byte's two nibble partials, and adds the bytes left to
right; it selects the probed partitions, the pool and the top k with
`top_positions` instead of sorting. The pool is the best `rerank` entries,
or 2 x `rerank` under a spill, where each id keeps only its first entry;
the rerank candidates are the pool's first `rerank` ids.

`score_codes` is held bit for bit to a per-row loop of its own summation
order, and to the reference within float64 rounding. Every SearchResult
must equal the reference's, bit for bit, on every grid, budget and k = n
case, at k = 100 with a spill pool of 2,000 entries, and on the cases that
scan the whole index with rerank 1 (all probes, a zero query, a query x
1e6, a budget). One hand-built index puts 2^52 in one subspace, so that
the two summation orders round apart: there search answers the entry the
byte order ranks first, and the reference another entry with the same
float32 exact score.
"""

import numpy as np
import pytest

from soar.core import _SELECT_FROM, Dataset, Neighbor, batch_inner_products, top_positions
from soar.index import (
    SearchParams,
    SearchResult,
    SoarIndex,
    _partitions_to_scan,
    build,
    search,
)
from soar.pq import (
    PQCodebook,
    pq_decode,
    pq_encode_batch,
    score_codes,
    scoring_table,
    train_pq,
    unpack_codes,
)
from soar.vq import AssignmentTable, Codebook

# ---------------------------------------------------------------------------
# reference search, verbatim


def reference_score_codes(table: np.ndarray, packed: np.ndarray, m: int) -> np.ndarray:
    """Vectorized lookup-table scoring for a block of packed codes."""
    nibbles = unpack_codes(packed, m)
    return table[np.arange(m)[None, :], nibbles].sum(axis=1)


def reference_search(index, q, params: SearchParams) -> SearchResult:
    """Approximate top-k for one query. See the module docstring for stages."""
    if not 1 <= params.k <= index.n:
        raise ValueError(f"k={params.k} outside [1, {index.n}]")
    qv = np.asarray(q, dtype=np.float64)
    if qv.ndim != 1 or qv.shape[0] != index.d:
        raise ValueError(f"query of shape {qv.shape} does not match index dimension {index.d}")
    if not np.all(np.isfinite(qv)):
        raise ValueError("query contains NaN or Inf")
    centers = index.codebook.centers.astype(np.float64)
    center_scores = (centers @ qv).astype(np.float32)
    order = np.lexsort((np.arange(index.c), -center_scores))
    scan = _partitions_to_scan(index, order, params)

    table = scoring_table(qv, index.pq_book)
    starts = index.offsets[scan]
    lengths = index.offsets[scan + 1] - starts
    scanned = int(lengths.sum())
    if scanned == 0:
        return SearchResult(neighbors=[], datapoints_scanned=0)
    # the probed rows in scan order: partition by partition, ids ascending
    rows = np.arange(scanned) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    ids = index.ids[rows].astype(np.int64)
    codes = np.take(index.codes, rows, axis=0)  # about 10x faster here than codes[rows]
    approx = np.repeat(center_scores[scan].astype(np.float64), lengths) + reference_score_codes(
        table, codes, index.pq_book.m
    )
    # dedup: keep the best approximate score per id
    keep = np.lexsort((-approx, ids))
    ids, approx = ids[keep], approx[keep]
    first = np.ones(ids.shape[0], dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ids, approx = ids[first], approx[first]

    take = np.lexsort((ids, -approx))[: params.resolved_rerank()]
    cand = ids[take]
    exact = batch_inner_products(qv, index.full_store.data[cand])
    top = np.lexsort((cand, -exact))[: params.k]
    neighbors = [Neighbor(int(cand[i]), float(exact[i])) for i in top]
    return SearchResult(neighbors=neighbors, datapoints_scanned=scanned)


# ---------------------------------------------------------------------------
# score_codes == its own order, and the reference within rounding


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def byte_order_scores(table: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """score_codes one row at a time: per byte, the low nibble's partial plus
    the high nibble's (0 for the pad nibble of odd m), then the bytes added
    left to right."""
    m = table.shape[0]
    out = np.empty(packed.shape[0])
    for i, row in enumerate(packed.tolist()):
        total = None
        for j, byte in enumerate(row):
            high = float(table[2 * j + 1, byte >> 4]) if 2 * j + 1 < m else 0.0
            pair = float(table[2 * j, byte & 0x0F]) + high
            total = pair if total is None else total + pair
        out[i] = total
    return out


def _assert_scores(table: np.ndarray, packed: np.ndarray):
    m, code_bytes = table.shape[0], packed.shape[1]
    got = score_codes(table, packed)
    assert _bits(got) == _bits(byte_order_scores(table, packed))
    # the reference adds the same partials subspace by subspace: each of
    # the m - 1 adds on its side and the m // 2 + code_bytes - 1 on this
    # side rounds by at most eps / 2 times the sum of the row's |partials|
    nibbles = unpack_codes(packed, m)
    magnitude = np.abs(table[np.arange(m)[None, :], nibbles]).sum(axis=1)
    gap = np.abs(got - reference_score_codes(table, packed, m))
    assert np.all(gap <= (m + code_bytes) * np.finfo(np.float64).eps * magnitude)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 32, 33])
def test_score_codes_matches_reference(m):
    rng = np.random.default_rng(m)
    # partials of mixed magnitude and sign, so summation order would show
    table = rng.standard_normal((m, 16)) * 10.0 ** rng.integers(-8, 8, size=(m, 16))
    table[0, 3] = -0.0
    packed = rng.integers(0, 256, size=(3000, (m + 1) // 2), dtype=np.uint8)
    if m % 2:
        packed[:, -1] &= 0x0F  # the pad nibble of odd m is always 0
    _assert_scores(table, packed)


def test_score_codes_matches_reference_on_trained_codes():
    rng = np.random.default_rng(5)
    for d, s in [(13, 2), (24, 3), (9, 1), (4, 4)]:
        X = rng.standard_normal((800, d))
        book = train_pq(X, s=s, seed=d)
        packed = pq_encode_batch(X, book)
        table = scoring_table(rng.standard_normal(d), book)
        _assert_scores(table, packed)
        assert score_codes(table, packed[:0]).shape == (0,)


# ---------------------------------------------------------------------------
# top_positions == the full lexsort's prefix


_SELECTION_SIZE = 5000


def _selection_cases():
    rng = np.random.default_rng(8)
    size = _SELECTION_SIZE
    signed_zeros = np.where(rng.random(size) < 0.5, 0.0, -0.0)
    signed_zeros[rng.integers(size, size=600)] = rng.choice([-1.0, 1.0], size=600)
    with_nan = rng.standard_normal(size)
    with_nan[rng.integers(size, size=30)] = np.nan
    # float32 normals repeat at this size, so the repeats are dropped
    distinct32 = rng.permutation(np.unique(rng.standard_normal(size + 100).astype(np.float32)))
    return {
        "float32": (distinct32[:size], None),
        "float64": (rng.standard_normal(size), None),
        "heavy-ties": (rng.integers(0, 4, size=size).astype(np.float32), None),
        "signed-zeros": (signed_zeros, None),
        "tiebreak-ids": (rng.integers(0, 6, size=size).astype(np.float64), rng.permutation(size)),
        "nan": (with_nan, None),
    }


SELECTION = _selection_cases()


def test_selection_cases_take_the_paths_they_name():
    # float32 and float64 hold no equal scores, so a cut that keeps
    # _SELECT_FROM entries or more sorts them by score alone; the ties of the
    # next three (a signed zero ties too) send such a cut to the lexsort,
    # and the NaN sends every selecting cut to the full lexsort
    for case in ("float32", "float64"):
        assert np.unique(SELECTION[case][0]).shape[0] == _SELECTION_SIZE, case
    for case in ("heavy-ties", "signed-zeros", "tiebreak-ids"):
        assert np.unique(SELECTION[case][0][:40]).shape[0] < 10, case
    assert np.isnan(SELECTION["nan"][0][:600]).any()


@pytest.mark.parametrize("count", [1, 2, 7, 60, 299, 300, 301, 1000, 2000])
@pytest.mark.parametrize("case", sorted(SELECTION))
def test_top_positions_is_the_lexsort_prefix(case, count):
    # below _SELECT_FROM entries top_positions sorts them all, from it on it
    # selects, and from _SELECT_FROM kept entries on (the larger counts) it
    # sorts by score alone; 2,000 and 5,000 entries are the pool cut's
    # sizes at k = 100
    for size in (40, _SELECT_FROM - 1, _SELECT_FROM, 600, 2000, _SELECTION_SIZE):
        scores = SELECTION[case][0][:size]
        tiebreak = None if SELECTION[case][1] is None else SELECTION[case][1][:size]
        keys = np.arange(size) if tiebreak is None else tiebreak
        want = np.lexsort((keys, -scores))[:count]
        got = top_positions(scores, count, tiebreak)
        assert got.tolist() == want.tolist(), size


# ---------------------------------------------------------------------------
# search == reference


def _mixture(n, d, seed, clusters=12):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((clusters, d)) * 2.0
    X = means[rng.integers(clusters, size=n)] + rng.standard_normal((n, d))
    Q = means[rng.integers(clusters, size=8)] + rng.standard_normal((8, d))
    return X.astype(np.float32), Q


def _duplicates():
    # 5 distinct rows x 40 copies (as in test_index's TestEmptyPartitions):
    # copies in one partition share one code, so approximate scores tie in
    # runs of 40 and straddle the pool's cut
    rng = np.random.default_rng(77)
    X = np.repeat(rng.standard_normal((5, 8)), 40, axis=0).astype(np.float32)
    return X, rng.standard_normal((6, 8))


def _lattice():
    # 150 integer rows in 8 coordinates, each copied into 4 clusters that
    # differ only in 2 coordinates the queries zero out. Exact scores are
    # exact integers, so they tie across rows whose codes (and approximate
    # scores) differ. The 4 centers and each row's 4 copies score the same,
    # so approximate scores tie across partitions, whose ids interleave:
    # scan position and id order disagree inside the ties.
    rng = np.random.default_rng(31)
    A = rng.integers(-3, 4, size=(150, 8))
    B = np.array([[30, 30], [30, -30], [-30, 30], [-30, -30]])
    X = np.concatenate([np.repeat(A, 4, axis=0), np.tile(B, (150, 1))], axis=1)
    Q = np.concatenate([rng.integers(-3, 4, size=(6, 8)), np.zeros((6, 2))], axis=1)
    return X.astype(np.float32), Q.astype(np.float64)


DATA = {
    # name: (X, Q, c, s)
    "mixture": (*_mixture(1500, 12, seed=1), 16, 2),
    "odd-m": (*_mixture(1200, 13, seed=2), 12, 2),  # m = 7: a pad nibble per code
    "duplicates": (*_duplicates(), 12, 2),
    "lattice": (*_lattice(), 4, 2),
}


@pytest.fixture(scope="module", params=sorted(DATA))
def dataset(request):
    X, Q, c, s = DATA[request.param]
    built = {
        policy: build(Dataset(X), c=c, policy=policy, s=s, seed=3, lam=1.0)
        for policy in ("none", "naive", "soar")
    }
    return Q, built


def _answer(result: SearchResult):
    return result.datapoints_scanned, [(nb.id, nb.score.hex()) for nb in result.neighbors]


def _assert_same(index, Q, params):
    for q in Q:
        assert _answer(search(index, q, params)) == _answer(reference_search(index, q, params))


def _rerank_values(index, k):
    return [1, k, None, index.n]


def _grid(index):
    """The (probes, rerank) grid of test_probe_and_rerank_grid, k = 10."""
    k = min(10, index.n)
    for probes in sorted({1, 2, index.c // 2, index.c}):
        for rerank in _rerank_values(index, k):
            yield SearchParams(k=k, probes=probes, rerank=rerank)


def _ties_at_cuts(index, q, params) -> set:
    """The cuts at which equal scores fall on both sides: "probes" (float32
    center scores), "pool" (the approximate scores of every scanned entry,
    at search's 2 x rerank-th place under a spill), "rerank" (deduplicated
    approximate scores), "k" (exact scores); plus "unordered" when the
    scanned ids of an unspilled index are not ascending overall."""
    qv = np.asarray(q, dtype=np.float64)
    center_scores = (index.codebook.centers.astype(np.float64) @ qv).astype(np.float32)
    scan = _partitions_to_scan(index, np.lexsort((np.arange(index.c), -center_scores)), params)
    lengths = index.offsets[scan + 1] - index.offsets[scan]
    rows = np.concatenate([np.arange(index.offsets[p], index.offsets[p + 1]) for p in scan])
    ids = index.ids[rows].astype(np.int64)
    approx = np.repeat(center_scores[scan].astype(np.float64), lengths) + score_codes(
        scoring_table(qv, index.pq_book), index.codes[rows]
    )
    found = set()
    spilled = index.ids.shape[0] != index.n
    if not spilled and np.any(np.diff(ids) < 0):
        found.add("unordered")
    rerank = params.resolved_rerank()
    cuts = [("pool", 2 * rerank, approx)] if spilled else []
    best = np.lexsort((-approx, ids))
    first = np.ones(best.shape[0], dtype=bool)
    first[1:] = ids[best][1:] != ids[best][:-1]
    ids, approx = ids[best][first], approx[best][first]
    order = np.lexsort((ids, -approx))
    exact = batch_inner_products(qv, index.full_store.data[ids[order][:rerank]])
    for cut, count, scores in cuts + [("probes", params.probes, center_scores),
                                      ("rerank", rerank, approx),
                                      ("k", params.k, exact)]:
        ranked = np.sort(scores)[::-1]
        if count < ranked.shape[0] and ranked[count - 1] == ranked[count]:
            found.add(cut)
    return found


@pytest.mark.parametrize("name,cuts", [("duplicates", {"probes", "pool", "rerank", "k", "unordered"}),
                                       ("lattice", {"probes", "pool", "rerank", "k", "unordered"}),
                                       ("mixture", {"unordered"})])
def test_grid_meets_ties_at_every_cut(name, cuts):
    # the identity tests above are only as strong as the ties they meet:
    # each selection must see equal scores straddling its cut, the pool's
    # truncation at 2 x rerank under a spill included, and the unspilled
    # path, which skips the first-entry pass, ids that arrive out of order
    X, Q, c, s = DATA[name]
    found = set()
    for policy in ("none", "naive", "soar"):
        index = build(Dataset(X), c=c, policy=policy, s=s, seed=3, lam=1.0)
        for params in _grid(index):
            for q in Q:
                found |= _ties_at_cuts(index, q, params)
    assert found >= cuts


def test_probe_and_rerank_grid(dataset):
    Q, built = dataset
    pooled = bypassed = 0
    for index in built.values():
        spilled = index.ids.shape[0] != index.n
        for params in _grid(index):
            _assert_same(index, Q, params)
            scanned = search(index, Q[0], params).datapoints_scanned
            if spilled and 2 * params.resolved_rerank() < scanned:
                pooled += 1
            elif spilled:
                bypassed += 1
    # under a spill, pools that truncate the scanned entries and pools
    # that hold every one of them are both exercised
    assert pooled and bypassed


@pytest.mark.parametrize("policy", ["none", "naive", "soar"])
def test_large_pool(policy):
    # k = 100: rerank 1,000, a pool of 2,000 entries under a spill, cut from
    # over 2,000 scanned entries; the DATA instances keep a few hundred
    X, Q = _mixture(5000, 16, seed=4)
    index = build(Dataset(X), c=20, policy=policy, s=2, seed=3, lam=1.0)
    for probes in (10, 16):
        params = SearchParams(k=100, probes=probes)
        for q in Q:
            result = search(index, q, params)
            assert result.datapoints_scanned > 2000
            assert _answer(result) == _answer(reference_search(index, q, params))


def test_budgets(dataset):
    Q, built = dataset
    for index in built.values():
        entries = int(index.offsets[-1])
        for budget in (0, entries // 3, entries // 2):
            for rerank in _rerank_values(index, 5):
                _assert_same(index, Q, SearchParams(k=5, budget=budget, rerank=rerank))


def test_k_equals_n(dataset):
    Q, built = dataset
    for index in built.values():
        for probes in (1, index.c):
            for rerank in (None, 1, index.n):
                _assert_same(index, Q[:3], SearchParams(k=index.n, probes=probes, rerank=rerank))


# ---------------------------------------------------------------------------
# searches that scan the whole index, or half of it, with rerank 1; and
# indices built so that one summation order or table resolution would
# rank two entries apart


def _first_stage_cases(index, Q):
    """(name, queries, params): scans of every entry, or of half of them,
    with rerank 1, and two that scan under 20 x the pool; the cases that
    took, and fell below, the gate of a former two-stage scan."""
    entries = int(index.offsets[-1])
    everything = SearchParams(k=10, probes=index.c, rerank=1)
    return [
        ("all probes", Q, everything),
        ("zero query", np.zeros((1, index.d)), everything),
        ("query x 1e6", Q[:2] * 1e6, everything),
        ("budget", Q, SearchParams(k=5, budget=entries // 2, rerank=1)),
        ("default rerank", Q, SearchParams(k=10, probes=index.c)),
        ("one probe", Q, SearchParams(k=1, probes=1, rerank=entries)),
    ]


def test_first_stage_cases(dataset):
    Q, built = dataset
    for index in built.values():
        for _, queries, params in _first_stage_cases(index, Q):
            _assert_same(index, queries, params)


def _ties_at_pool(index, q, params) -> bool:
    """Whether approximate scores of the scanned entries tie across the
    pool-th place (2 x rerank under a spill)."""
    qv = np.asarray(q, dtype=np.float64)
    center_scores = (index.codebook.centers.astype(np.float64) @ qv).astype(np.float32)
    scan = _partitions_to_scan(index, np.lexsort((np.arange(index.c), -center_scores)), params)
    lengths = index.offsets[scan + 1] - index.offsets[scan]
    pool = params.resolved_rerank() * (2 if index.ids.shape[0] != index.n else 1)
    if lengths.sum() <= pool:
        return False
    rows = np.concatenate([np.arange(index.offsets[p], index.offsets[p + 1]) for p in scan])
    approx = np.repeat(center_scores[scan].astype(np.float64), lengths) + score_codes(
        scoring_table(qv, index.pq_book), index.codes[rows]
    )
    ranked = np.sort(approx)[::-1]
    return bool(ranked[pool - 1] == ranked[pool])


@pytest.mark.parametrize("name", ["duplicates", "lattice"])
def test_first_stage_meets_ties_at_the_pool(name):
    # the whole-index cases are only as strong as the ties they meet at
    # the pool's cut, for every policy
    X, Q, c, s = DATA[name]
    for policy in ("none", "naive", "soar"):
        index = build(Dataset(X), c=c, policy=policy, s=s, seed=3, lam=1.0)
        assert any(_ties_at_pool(index, q, params)
                   for _, queries, params in _first_stage_cases(index, Q) for q in queries), policy


def _handmade(policy: str, partials: np.ndarray, nibbles: np.ndarray) -> SoarIndex:
    """An index with s = 1 and the given (m, 16) subspace centers, whose
    datapoints are the decoded codes of the given (n, m) nibbles. Centers at
    0, so every partition scores 0: one partition, or for a spilled policy
    two, each holding every id with the same code."""
    m, n = partials.shape[0], nibbles.shape[0]
    book = PQCodebook(partials[:, :, None], d=m)
    codes = (nibbles[:, 0::2] | nibbles[:, 1::2] << 4).astype(np.uint8)
    c = 1 if policy == "none" else 2
    assignment = AssignmentTable(np.zeros(n, dtype=np.int32),
                                 None if c == 1 else np.ones(n, dtype=np.int32),
                                 policy, 1.0 if policy == "soar" else None)
    return SoarIndex(codebook=Codebook(np.zeros((c, m))), pq_book=book,
                     offsets=np.arange(c + 1) * n, ids=np.tile(np.arange(n, dtype=np.uint32), c),
                     codes=np.tile(codes, (c, 1)),
                     full_store=Dataset([pq_decode(code, book) for code in codes]),
                     seed=0, assignment=assignment)


def _needs_quantization_bound():
    # m = 6, s = 1, q = 1: byte b's entries are subspace 2b's centers, one
    # of them 65535. Entry 0 (10.49 x 3 = 31.47) scores above entry 1
    # (10.51 + 10.51 + 9.51 = 30.53) by 0.94, under 1e-5 of the table's
    # range: a scan whose error grew with that range, as one on 16-bit
    # levels of the table would, could rank entry 1 first.
    partials = np.zeros((6, 16), dtype=np.float32)
    partials[0::2, 1:5] = [65535.0, 10.49, 10.51, 9.51]
    nibbles = np.zeros((40, 6), dtype=np.uint8)
    nibbles[0] = [2, 0, 2, 0, 2, 0]
    nibbles[1] = [3, 0, 3, 0, 4, 0]
    return partials, nibbles, np.ones(6), 0


def _rounds_apart():
    # m = 4, s = 1: subspace 2 scores 2^52 for every code, where float64
    # steps are 1. The reference sums the partials subspace by subspace,
    # ((t0 + t1) + 2^52) + t3; score_codes byte by byte, (t0 + t1) + (2^52
    # + t3); so each rounds at its own place. Entry 1 (t0 = 0.5, t3 = 0.75)
    # scores 2^52 + 1 in the reference but 2^52 + 2 in score_codes; entry 0
    # (t3 = 1) scores 2^52 + 1 in both. Their float32 exact scores tie, so
    # with k = rerank = 1 the reference answers 0 and search answers 1.
    partials = np.zeros((4, 16), dtype=np.float32)
    partials[0, 1] = 0.5
    partials[2] = 2.0**24
    partials[3, 1:3] = [0.75, 1.0]
    nibbles = np.zeros((40, 4), dtype=np.uint8)
    nibbles[0] = [0, 0, 0, 2]
    nibbles[1] = [1, 0, 0, 1]
    return partials, nibbles, np.array([1.0, 1.0, 2.0**28, 1.0]), 1


@pytest.mark.parametrize("policy", ["none", "naive", "soar"])
@pytest.mark.parametrize("case", [_needs_quantization_bound, _rounds_apart],
                         ids=["levels", "rounding"])
def test_first_stage_keeps_what_its_bound_must(case, policy):
    # k = rerank = 1, so the answer is the entry ranked first by
    # approximate score
    partials, nibbles, q, answer = case()
    index = _handmade(policy, partials, nibbles)
    params = SearchParams(k=1, probes=2, rerank=1)
    want = reference_search(index, q, params)
    got = search(index, q, params)
    assert [nb.id for nb in want.neighbors] == [0]
    assert [nb.id for nb in got.neighbors] == [answer]
    assert got.datapoints_scanned == want.datapoints_scanned
    assert got.neighbors[0].score == want.neighbors[0].score
    if answer == 0:
        _assert_same(index, [q], params)
