"""Span recorder for the traced benchmark run. Standard library only.

The recorder replaces module-level names at each layer boundary with
timing wrappers, for one run only, and puts every original back when the
run ends. A name that no longer exists (say a later refactor inlines
`score_codes`) is skipped and its metrics are reported as absent, never as
zero. Spans are kept in memory and written out once, at the end.

A span is (name, start_ns, end_ns, parent, query, count): `parent` is the
index of the enclosing span or -1, `query` the query id the caller set
(None outside the serving loop), `count` the rows of work the call was
handed (codes scanned, rows reranked), or 1.
"""

import functools
import importlib
import json
import time


def _rows(position: int):
    """Count function: rows of the positional argument at `position`."""

    def count(args, kwargs) -> int:
        return int(args[position].shape[0]) if len(args) > position else 1

    return count


# (module, attribute, span name, count function). Calls from soar.index,
# soar.cli, soar.evaluation and soar.vecio go through these module
# globals, so wrapping them catches the program's own calls.
LAYERS = [
    ("soar.index", "build", "index.build", None),
    ("soar.index", "search", "index.search", None),
    ("soar.index", "serialize", "index.serialize", None),
    ("soar.index", "deserialize", "index.deserialize", None),
    ("soar.index", "train_kmeans", "vq.train_kmeans", None),
    ("soar.index", "assign_primary", "vq.assign_primary", None),
    ("soar.index", "assign_spilled_soar", "vq.assign_spill", None),
    ("soar.index", "assign_spilled_naive", "vq.assign_spill", None),
    ("soar.index", "train_pq", "pq.train_pq", None),
    ("soar.index", "pq_encode_batch", "pq.encode", None),
    ("soar.index", "scoring_table", "pq.table", None),
    ("soar.index", "score_codes", "pq.scan", _rows(1)),
    ("soar.index", "batch_inner_products", "core.rerank", _rows(1)),
    ("soar.evaluation", "ground_truth_ids", "evaluation.ground_truth", None),
    ("soar.evaluation", "kmr_curve", "evaluation.kmr_curve", None),
    ("soar.evaluation", "diagnostics", "evaluation.diagnostics", None),
    ("soar.vecio", "ground_truth_ids", "evaluation.ground_truth", None),
    ("soar.vecio", "read_fvecs", "vecio.io", None),
    ("soar.vecio", "write_fvecs", "vecio.io", None),
    ("soar.vecio", "read_ivecs", "vecio.io", None),
    ("soar.vecio", "write_ivecs", "vecio.io", None),
    ("soar.vecio", "file_digest", "vecio.io", None),
    ("soar.cli", "cmd_synth", "cli.command", None),
    ("soar.cli", "cmd_build", "cli.command", None),
    ("soar.cli", "cmd_search", "cli.command", None),
    ("soar.cli", "cmd_bench", "cli.command", None),
    ("soar.cli", "cmd_diagnose", "cli.command", None),
]


class Recorder:
    """Collects spans from the wrappers it installs; a context manager that
    restores every wrapped name on exit."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list = []
        self.query = None
        self.wrapped: set[str] = set()  # span names with at least one live source
        self.missing: list[str] = []  # "module.attr" names that do not exist
        self._stack: list[int] = []
        self._originals: list = []

    def __enter__(self):
        for module_name, attr, span, count in self.layers:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                if f"{module_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span, count))
            self._originals.append((module, attr, original))
            self.wrapped.add(span)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span: str, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(slot)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                work = count(args, kwargs) if count else 1
                spans[slot] = (span, start, end, parent, self.query, work)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, query, count in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "query": query, "count": count}) + "\n")


class Totals:
    """Per-span-name sums over a span list: calls, work count, total and
    self nanoseconds. Self time is a span's duration minus its children's."""

    def __init__(self, spans, wrapped):
        self.wrapped = set(wrapped)
        self.calls: dict[str, int] = {}
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        child_ns = [0] * len(spans)
        for name, start, end, parent, _query, _count in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _parent, _query, work) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.count[name] = self.count.get(name, 0) + work
            self.total_ns[name] = self.total_ns.get(name, 0) + (end - start)
            self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - child_ns[i])

    def has(self, name: str) -> bool:
        return name in self.wrapped


def nested_calls(spans, name: str, ancestor: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    found = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                found += 1
                break
            parent = spans[parent][3]
    return found


def merge(totals: list) -> "Totals":
    """Sum several Totals (the orchestrating process and the serving one)."""
    out = Totals([], set())
    for t in totals:
        out.wrapped |= t.wrapped
        for table in ("calls", "count", "total_ns", "self_ns"):
            mine, theirs = getattr(out, table), getattr(t, table)
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value
    return out


def to_dict(t: Totals) -> dict:
    return {"wrapped": sorted(t.wrapped), "calls": t.calls, "count": t.count,
            "total_ns": t.total_ns, "self_ns": t.self_ns}


def from_dict(d: dict) -> Totals:
    t = Totals([], d["wrapped"])
    t.calls, t.count, t.total_ns, t.self_ns = d["calls"], d["count"], d["total_ns"], d["self_ns"]
    return t


# Per-run totals: (metric, unit, span, what). "total" and "self" are
# seconds, "calls" is the number of spans.
RUN_METRICS = [
    ("vq.train_kmeans_s", "s", "vq.train_kmeans", "total"),
    ("vq.train_kmeans_calls", "count", "vq.train_kmeans", "calls"),
    ("vq.assign_primary_s", "s", "vq.assign_primary", "total"),
    ("vq.assign_spill_s", "s", "vq.assign_spill", "total"),
    ("pq.train_pq_s", "s", "pq.train_pq", "total"),
    ("pq.encode_s", "s", "pq.encode", "total"),
    ("index.build_self_s", "s", "index.build", "self"),
    ("index.serialize_s", "s", "index.serialize", "total"),
    ("index.deserialize_self_s", "s", "index.deserialize", "self"),
    ("evaluation.ground_truth_s", "s", "evaluation.ground_truth", "total"),
    ("evaluation.ground_truth_calls", "count", "evaluation.ground_truth", "calls"),
    ("evaluation.kmr_curve_self_s", "s", "evaluation.kmr_curve", "self"),
    ("evaluation.diagnostics_self_s", "s", "evaluation.diagnostics", "self"),
    ("vecio.io_s", "s", "vecio.io", "total"),
    ("cli.command_self_s", "s", "cli.command", "self"),
]

# Means per served query: (metric, unit, span, what). "total" and "self"
# are milliseconds, "calls" spans and "count" rows of work per query.
QUERY_METRICS = [
    ("index.search_self_ms", "ms", "index.search", "self"),
    ("pq.table_ms", "ms", "pq.table", "total"),
    ("pq.scan_ms", "ms", "pq.scan", "total"),
    ("pq.scan_calls", "count", "pq.scan", "calls"),
    ("pq.codes_scanned", "count", "pq.scan", "count"),
    ("core.rerank_ms", "ms", "core.rerank", "total"),
    ("core.rerank_rows", "count", "core.rerank", "count"),
]


def _value(t: Totals, span: str, what: str, scale: float) -> float:
    if what == "calls":
        return float(t.calls.get(span, 0))
    if what == "count":
        return float(t.count.get(span, 0))
    table = t.self_ns if what == "self" else t.total_ns
    return table.get(span, 0) * scale


def layer_metrics(run: Totals, serve: Totals, queries: int) -> tuple[dict, list]:
    """Per-layer metrics as {name: {"value", "unit"}}, plus the names left
    out because the layer they time no longer exists."""
    out, absent = {}, []
    for name, unit, span, what in RUN_METRICS:
        if run.has(span):
            out[name] = {"value": _value(run, span, what, 1e-9), "unit": unit}
        else:
            absent.append(name)
    for name, unit, span, what in QUERY_METRICS:
        if serve.has(span):
            out[name] = {"value": _value(serve, span, what, 1e-6) / queries, "unit": unit}
        else:
            absent.append(name)
    return out, absent
