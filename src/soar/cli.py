"""Command-line front end.

Subcommands: synth, build, search, bench, diagnose, verify. Every command
resolves its parameters from built-in defaults, then an optional key=value
config file (--config), then explicit flags, and embeds the resolved
config in its output header so runs can be reproduced.

Exit codes: 0 success, 1 usage error, 2 data or format error,
3 verification failure.

Outputs are deterministic for a fixed resolved config, with one documented
exception: the mean_query_latency_ms column of bench is wall-clock time.
"""

import argparse
import csv
import io
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluation, index as index_mod, pq, vecio
from .core import Dataset
from .evaluation import MIN_THEOREM_SAMPLES
from .index import IndexFormatError, SearchParams
from .vecio import DataFormatError

__all__ = ["main"]

_REQUIRED = object()
_TARGETS = (0.8, 0.85, 0.9, 0.95)


class UsageError(Exception):
    pass


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _read_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except FileNotFoundError as exc:
        raise DataFormatError(f"{path}: no such config file") from exc
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_ALIASES = {"lambda": "lam"}


def _resolve(args, command: str, defaults: dict, converters: dict) -> dict:
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, raw in _read_config_file(config_path).items():
            key = _ALIASES.get(key, key)
            if key not in cfg:
                raise UsageError(f"unknown config key {key!r} for {command}")
            conv = converters.get(key, str)
            try:
                cfg[key] = conv(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"bad config value for {key}: {exc}")
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    missing = sorted(k for k, v in cfg.items() if v is _REQUIRED)
    if missing:
        raise UsageError(f"{command}: missing required option(s): {', '.join(missing)}")
    return cfg


def _format_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_lines(command: str, cfg: dict) -> list[str]:
    lines = [f"soar {command}"]
    lines += [f"{key}={_format_value(cfg[key])}" for key in sorted(cfg)]
    return lines


def _emit_header(command: str, cfg: dict) -> None:
    for line in _config_lines(command, cfg):
        print(line)


def _write_csv(path, command: str, cfg: dict, header: list[str], rows) -> None:
    """The config as # comment lines, then header and rows; written atomically."""
    text = io.StringIO()
    for line in _config_lines(command, cfg):
        text.write(f"# {line}\n")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    index_mod.write_atomic(path, text.getvalue().encode())


def _fixed(values: np.ndarray, places: int) -> list[str]:
    return [f"{v:.{places}f}" for v in values.tolist()]


def _load_dataset(path) -> Dataset:
    return Dataset(vecio.read_fvecs(path))


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    defaults = {"n": 1000, "d": 16, "clusters": 10, "sigma": 0.25, "seed": 42, "out": _REQUIRED}
    convs = {"n": int, "d": int, "clusters": int, "sigma": float, "seed": int}
    cfg = _resolve(args, "synth", defaults, convs)
    if cfg["n"] < 1 or cfg["d"] < 1 or cfg["clusters"] < 1:
        raise UsageError("n, d, and clusters must all be at least 1")
    if cfg["sigma"] < 0:
        raise UsageError("sigma must be non-negative")
    rng = np.random.default_rng(cfg["seed"])
    means = rng.uniform(-1.0, 1.0, size=(cfg["clusters"], cfg["d"]))
    labels = rng.integers(0, cfg["clusters"], size=cfg["n"])
    points = means[labels]
    if cfg["sigma"] > 0:
        points = points + cfg["sigma"] * rng.standard_normal((cfg["n"], cfg["d"]))
    vecio.write_fvecs(cfg["out"], points.astype(np.float32))
    meta = "".join(f"{k}={_format_value(cfg[k])}\n" for k in sorted(cfg))
    index_mod.write_atomic(f"{cfg['out']}.meta", meta.encode())
    _emit_header("synth", cfg)
    print(f"wrote {cfg['n']} x {cfg['d']} float32 vectors to {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    defaults = {
        "c": None,  # None means n / 400, the usual partition sizing rule
        "policy": "soar",
        "lam": 1.0,
        "s": 2,
        "seed": 42,
        "max_iters": 25,
        "out": _REQUIRED,
    }
    convs = {"c": int, "policy": str, "lam": float, "s": int, "seed": int, "max_iters": int}
    cfg = _resolve(args, "build", defaults, convs)
    X = _load_dataset(args.dataset)
    if cfg["c"] is None:
        cfg["c"] = max(1, round(X.n / 400))
    cfg["dataset"] = str(args.dataset)
    if cfg["policy"] not in index_mod.POLICIES:
        raise UsageError(f"policy must be one of {', '.join(index_mod.POLICIES)}")

    t0 = time.perf_counter()
    idx = index_mod.build(
        X,
        c=cfg["c"],
        policy=cfg["policy"],
        s=cfg["s"],
        seed=cfg["seed"],
        lam=cfg["lam"],
        max_iters=cfg["max_iters"],
    )
    build_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    index_mod.save(idx, cfg["out"])
    write_seconds = time.perf_counter() - t0
    actual = Path(cfg["out"]).stat().st_size

    spilled = cfg["policy"] != "none"
    acct = pq.memory_accounting(X.n, X.d, cfg["s"], precision="float32", spilled=spilled)
    entries = 2 * X.n if spilled else X.n
    predicted = (
        index_mod.HEADER_BYTES
        + 4 * idx.c * X.d
        + 4 * idx.pq_book.m * 16 * idx.pq_book.s
        + 8 * idx.c
        + entries * acct.per_point_pq
        + 4 * X.n * X.d
    )
    _emit_header("build", cfg)
    print(f"build_seconds={build_seconds:.3f}")
    print(f"write_seconds={write_seconds:.3f}")
    print(f"predicted_bytes={predicted}")
    print(f"actual_bytes={actual}")
    print(f"per_point_pq_bytes={acct.per_point_pq}")
    print(f"spill_overhead_bytes={acct.soar_overhead_bytes}")
    print(f"relative_increase={acct.relative_increase:.6f}")
    print(f"approx_relative_increase={acct.approx_relative_increase:.6f}")
    if predicted != actual:
        print("warning: predicted size disagrees with serialized size", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    defaults = {"k": 10, "probes": None, "rerank": None, "budget": None, "out": None}
    convs = {"k": int, "probes": int, "rerank": int, "budget": int}
    cfg = _resolve(args, "search", defaults, convs)
    idx = index_mod.load(args.index)
    Q = _load_dataset(args.queries)
    if cfg["probes"] is None and cfg["budget"] is None:
        cfg["probes"] = idx.c
    cfg["index"] = str(args.index)
    cfg["queries"] = str(args.queries)
    params = SearchParams(k=cfg["k"], probes=cfg["probes"], rerank=cfg["rerank"], budget=cfg["budget"])
    header = ["query_id", "position", "datapoint_id", "score"]
    rows = []
    for qi in range(Q.n):
        result = index_mod.search(idx, Q.row(qi), params)
        for pos, nb in enumerate(result.neighbors):
            rows.append([qi, pos, nb.id, f"{nb.score:.6f}"])
    if cfg["out"]:
        _write_csv(cfg["out"], "search", cfg, header, rows)
        print(f"wrote {len(rows)} rows to {cfg['out']}")
    else:
        _emit_header("search", cfg)
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))
    return 0


# ---------------------------------------------------------------------------
# bench


def _ground_truth(args, k: int, Q: Dataset) -> np.ndarray | None:
    """The top-k truth from --gt or --dataset, or None when neither is given."""
    if args.gt:
        ids = vecio.read_ivecs(args.gt)
        if ids.shape[0] != Q.n or ids.shape[1] < k:
            raise DataFormatError(
                f"{args.gt}: ground truth shape {ids.shape} does not cover "
                f"{Q.n} queries at k={k}"
            )
        return ids[:, :k].astype(np.int64)
    if args.dataset:
        return vecio.load_or_compute_ground_truth(args.dataset, args.queries, k)
    return None


def cmd_bench(args) -> int:
    defaults = {
        "k": 10,
        "probes": [1, 2, 4, 8, 16, 32, 64],
        "rerank": None,
        "out": _REQUIRED,
        "targets_out": None,
    }
    convs = {"k": int, "probes": _int_list, "rerank": int}
    cfg = _resolve(args, "bench", defaults, convs)
    cfg["index"] = [str(p) for p in args.index]
    cfg["queries"] = str(args.queries)
    if cfg["targets_out"] is None:
        cfg["targets_out"] = str(Path(cfg["out"]).with_suffix(".targets.csv"))

    indices = [index_mod.load(p) for p in args.index]
    Q = _load_dataset(args.queries)
    for idx, path in zip(indices, args.index):
        if idx.d != Q.d:
            raise DataFormatError(f"{path}: index dimension {idx.d} != query dimension {Q.d}")
    truth = _ground_truth(args, cfg["k"], Q)
    if truth is None:
        if not args.exact:
            raise UsageError("bench needs one of --gt, --dataset, or --exact")
        truth = evaluation.ground_truth_ids(Q, indices[0].full_store, cfg["k"])
    truth_sets = [set(map(int, row)) for row in truth]

    # datapoints each index scans to reach each target; gains are over the last `none` index
    curves = [evaluation.kmr_curve(Q, idx.full_store, idx, cfg["k"], truth=truth) for idx in indices]
    costs = np.array([[evaluation.datapoints_to_recall(cv, t) for t in _TARGETS] for cv in curves])
    none_costs = [cost for idx, cost in zip(indices, costs) if idx.policy == "none"]
    sweep_rows = []
    target_rows = []
    for idx, cost in zip(indices, costs):
        gains = _fixed(none_costs[-1] / cost, 4) if none_costs else [""] * len(_TARGETS)
        for target, dp, gain in zip(_TARGETS, cost, gains):
            target_rows.append([idx.policy, _format_value(idx.lam), target, f"{dp:.2f}", gain])
        probes_list = sorted({min(p, idx.c) for p in cfg["probes"]})
        for probes in probes_list:
            params = SearchParams(k=cfg["k"], probes=probes, rerank=cfg["rerank"])
            hits = 0
            scanned = 0
            started = time.perf_counter_ns()
            for qi in range(Q.n):
                result = index_mod.search(idx, Q.row(qi), params)
                scanned += result.datapoints_scanned
                hits += len({nb.id for nb in result.neighbors} & truth_sets[qi])
            elapsed_ms = (time.perf_counter_ns() - started) / 1e6
            sweep_rows.append(
                [
                    idx.policy,
                    _format_value(idx.lam),
                    probes,
                    f"{scanned / Q.n:.2f}",
                    f"{hits / (cfg['k'] * Q.n):.6f}",
                    f"{elapsed_ms / Q.n:.4f}",
                ]
            )

    _write_csv(
        cfg["out"],
        "bench",
        cfg,
        ["policy", "lambda", "probes", "datapoints_scanned", "recall_at_k", "mean_query_latency_ms"],
        sweep_rows,
    )
    _write_csv(
        cfg["targets_out"],
        "bench",
        cfg,
        ["policy", "lambda", "target", "datapoints", "gain_over_none"],
        target_rows,
    )
    _emit_header("bench", cfg)
    print(f"wrote {len(sweep_rows)} sweep rows to {cfg['out']}")
    print(f"wrote {len(target_rows)} target rows to {cfg['targets_out']}")
    return 0


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args) -> int:
    defaults = {"k": 100, "out": _REQUIRED, "summary_out": None}
    convs = {"k": int}
    cfg = _resolve(args, "diagnose", defaults, convs)
    cfg["index"] = str(args.index)
    cfg["queries"] = str(args.queries)
    if cfg["summary_out"] is None:
        cfg["summary_out"] = str(Path(cfg["out"]).with_suffix(".summary.csv"))
    idx = index_mod.load(args.index)
    Q = _load_dataset(args.queries)
    truth = _ground_truth(args, cfg["k"], Q)  # None: exact truth, computed here
    result = evaluation.diagnostics(Q, idx.full_store, idx, cfg["k"], truth=truth)
    spilled = idx.assignment.spilled is not None

    header = ["neighbor_id", "residual_norm", "cos_primary", "score_err_primary", "rank_primary"]
    if spilled:
        header += ["cos_spilled", "score_err_spilled", "rank_spilled"]
    columns = [np.repeat(np.arange(Q.n), cfg["k"])] + [getattr(result, name) for name in header]
    cells = [_fixed(col, 6) if col.dtype.kind == "f" else col.tolist() for col in columns]
    _write_csv(cfg["out"], "diagnose", cfg, ["query_id"] + header, zip(*cells))

    summary = result.summary
    spill_means = _fixed(summary.mean_rank_spilled, 4) if spilled else [""] * summary.counts.size
    sum_cells = [summary.rank_bins.tolist(), summary.counts.tolist(),
                 _fixed(summary.mean_score_err_primary, 6), spill_means]
    sum_header = ["rank_primary", "count", "mean_score_err_primary", "mean_rank_spilled"]
    _write_csv(cfg["summary_out"], "diagnose", cfg, sum_header, zip(*sum_cells))

    _emit_header("diagnose", cfg)
    if not spilled:
        print("notice: policy 'none' has no spilled assignment; spilled columns omitted")
    if summary.pearson_cos is not None:
        print(f"pearson_cos={summary.pearson_cos:.6f}")
    print(f"wrote {summary.num_records} records to {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    defaults = {
        "d": 32,
        "lambdas": [0.0, 1.0, 2.0],
        "samples": 1_000_000,
        "pairs": 10,
        "seed": 42,
        "theorem_tol": 0.02,
        "lemma_tol": 0.005,
        "out": None,
    }
    convs = {
        "d": int,
        "lambdas": _float_list,
        "samples": int,
        "pairs": int,
        "seed": int,
        "theorem_tol": float,
        "lemma_tol": float,
    }
    cfg = _resolve(args, "verify", defaults, convs)
    if cfg["d"] < 2:
        raise UsageError("d must be at least 2")
    if cfg["pairs"] < 1:
        raise UsageError("pairs must be at least 1")
    if cfg["samples"] < MIN_THEOREM_SAMPLES:
        raise UsageError(f"samples must be at least {MIN_THEOREM_SAMPLES}")
    _emit_header("verify", cfg)

    rng = np.random.default_rng(cfg["seed"])
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(2 * cfg["pairs"])
    rows = []
    ok = True
    for i in range(cfg["pairs"]):
        r = rng.standard_normal(cfg["d"])
        cands = rng.standard_normal((2, cfg["d"]))
        for lam in cfg["lambdas"]:
            report = evaluation.mc_verify_theorem1(r, cands, lam, cfg["samples"], seed=seeds[i])
            passed = report.max_ratio_error <= cfg["theorem_tol"]
            ok &= passed
            status = "PASS" if passed else "FAIL"
            print(
                f"theorem pair={i} lambda={lam:g} ratio_error={report.max_ratio_error:.5f} "
                f"tol={cfg['theorem_tol']:g} {status}"
            )
            rows.append(["theorem", f"{lam:g}", i, f"{report.max_ratio_error:.6f}",
                         f"{cfg['theorem_tol']:g}", status])
    for i in range(cfg["pairs"]):
        r = rng.standard_normal(cfg["d"])
        rp = rng.standard_normal(cfg["d"])
        report = evaluation.mc_verify_lemma(r, rp, cfg["samples"], seed=seeds[cfg["pairs"] + i])
        passed = report.abs_error <= cfg["lemma_tol"]
        ok &= passed
        status = "PASS" if passed else "FAIL"
        print(
            f"lemma pair={i} rho={report.empirical_rho:+.5f} expected={report.closed_form:+.5f} "
            f"error={report.abs_error:.5f} tol={cfg['lemma_tol']:g} {status}"
        )
        rows.append(["lemma", "", i, f"{report.abs_error:.6f}", f"{cfg['lemma_tol']:g}", status])

    if cfg["out"]:
        _write_csv(cfg["out"], "verify", cfg,
                   ["check", "lambda", "pair", "observed_error", "tolerance", "status"], rows)
    print(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser plumbing


def _add_config_flag(sub) -> None:
    sub.add_argument("--config", help="key=value file; explicit flags override it")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="soar", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("synth", help="generate a Gaussian-mixture fvecs dataset")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--clusters", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    _add_config_flag(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("build", help="build a .soar index from an fvecs dataset")
    p.add_argument("dataset")
    p.add_argument("--out")
    p.add_argument("--c", type=int, help="partitions; default is n / 400")
    p.add_argument("--policy", choices=("none", "naive", "soar"))
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--s", type=int, help="dimensions per quantizer subspace")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    _add_config_flag(p)
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("search", help="run queries against an index, emit result rows")
    p.add_argument("index")
    p.add_argument("queries")
    p.add_argument("--k", type=int)
    p.add_argument("--probes", type=int)
    p.add_argument("--rerank", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--out")
    _add_config_flag(p)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("bench", help="probe sweep and scan-cost targets across indices")
    p.add_argument("--index", nargs="+", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--gt", help="ivecs ground truth")
    p.add_argument("--dataset", help="fvecs dataset; ground truth is cached beside it")
    p.add_argument("--exact", action="store_true", help="brute-force ground truth in memory")
    p.add_argument("--k", type=int)
    p.add_argument("--probes", type=_int_list)
    p.add_argument("--rerank", type=int)
    p.add_argument("--out")
    p.add_argument("--targets-out", dest="targets_out")
    _add_config_flag(p)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("diagnose", help="per-neighbor residual angle and rank records")
    p.add_argument("index")
    p.add_argument("queries")
    p.add_argument("--gt", help="ivecs ground truth")
    p.add_argument("--dataset", help="fvecs dataset; ground truth is cached beside it")
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.add_argument("--summary-out", dest="summary_out")
    _add_config_flag(p)
    p.set_defaults(func=cmd_diagnose)

    p = subs.add_parser("verify", help="Monte Carlo checks of the spill objective")
    p.add_argument("--d", type=int)
    p.add_argument("--lambdas", type=_float_list)
    p.add_argument("--samples", type=int)
    p.add_argument("--pairs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--theorem-tol", dest="theorem_tol", type=float)
    p.add_argument("--lemma-tol", dest="lemma_tol", type=float)
    p.add_argument("--out")
    _add_config_flag(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, IndexFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
