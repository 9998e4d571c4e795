"""Command-line front end.

Subcommands: synth, build, search, bench, diagnose, verify. The argument
parser declares every option once, with its default, type and choices. A
--config file's key=value lines (a key is an option name; `lambda` or `lam`
sets --lambda) are parsed as flags placed before the explicit ones, which
override them; inputs cannot come from the file. Every command embeds its
resolved config in its output header so runs can be reproduced.

Exit codes: 0 success, 1 usage error, 2 data or format error,
3 verification failure.

Outputs are deterministic for a fixed resolved config, with one documented
exception: the mean_query_latency_ms column of bench is wall-clock time.
"""

import argparse
import csv
import functools
import io
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluation, index as index_mod, vecio
from .core import Dataset
from .evaluation import MIN_THEOREM_SAMPLES
from .index import SearchParams
from .vecio import DataFormatError

__all__ = ["main"]

_REQUIRED = object()
_TARGETS = (0.8, 0.85, 0.9, 0.95)
# parsed names that are not options: neither config-file keys nor in the resolved config
_NOT_OPTIONS = ("dataset", "index", "queries", "gt", "exact", "config", "help", "command", "func")


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


def _lambda_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise argparse.ArgumentTypeError(f"expected finite lambdas >= 0, got {text!r}")
    return values


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got an empty string")
    return text


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


def _config_argv(parser: argparse.ArgumentParser, command: str, path) -> list[str]:
    """The config file's lines as --flag=value tokens for `parser`. A key is an
    option's dest or its flag spelled with underscores: `lam` or `lambda`."""
    flags = {}
    for action in parser._actions:
        if action.option_strings and action.dest not in _NOT_OPTIONS:
            flag = action.option_strings[0]
            flags[action.dest] = flags[flag[2:].replace("-", "_")] = flag
    tokens = []
    for key, value in _read_config_file(path).items():
        if key not in flags:
            raise UsageError(f"unknown config key {key!r} for {command}")
        tokens.append(f"{flags[key]}={value}")
    return tokens


def _config(args) -> dict:
    """The resolved config: every parsed option's value."""
    cfg = {key: value for key, value in vars(args).items() if key not in _NOT_OPTIONS}
    missing = sorted(key for key, value in cfg.items() if value is _REQUIRED)
    if missing:
        raise UsageError(f"{args.command}: missing required option(s): {', '.join(missing)}")
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


def _load_indices(paths, queries) -> tuple[list[index_mod.SoarIndex], Dataset]:
    """The indices and the query set, which must match every index's dimension."""
    indices = [index_mod.load(p) for p in paths]
    Q = _load_dataset(queries)
    for idx, path in zip(indices, paths):
        if idx.d != Q.d:
            raise DataFormatError(f"{path}: index dimension {idx.d} != query dimension {Q.d}")
    return indices, Q


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    cfg = _config(args)
    if cfg["n"] < 1 or cfg["d"] < 1 or cfg["clusters"] < 1:
        raise UsageError("n, d, and clusters must all be at least 1")
    if not (math.isfinite(cfg["sigma"]) and cfg["sigma"] >= 0):
        raise UsageError("sigma must be finite and non-negative")
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
    cfg = _config(args)
    X = _load_dataset(args.dataset)
    if cfg["c"] is None:  # a spill needs a second partition
        cfg["c"] = max(1 if cfg["policy"] == "none" else 2, round(X.n / 400))
    cfg["dataset"] = str(args.dataset)

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
    acct = index_mod.memory_accounting(X.n, X.d, cfg["s"], spilled=spilled)
    predicted = sum(size for _, size in index_mod.sections(X.n, X.d, idx.c, cfg["s"], spilled))
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
    cfg = _config(args)
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
        result = index_mod.search(idx, Q.data[qi], params)
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
    cfg = _config(args)
    cfg["index"] = [str(p) for p in args.index]
    cfg["queries"] = str(args.queries)
    if cfg["targets_out"] is None:
        cfg["targets_out"] = str(Path(cfg["out"]).with_suffix(".targets.csv"))

    indices, Q = _load_indices(args.index, args.queries)
    # built before the truth, so bad search parameters fail before any work
    sweeps = [[SearchParams(k=cfg["k"], probes=probes, rerank=cfg["rerank"])
               for probes in sorted({min(p, idx.c) for p in cfg["probes"]})] for idx in indices]
    truth = _ground_truth(args, cfg["k"], Q)
    if truth is None:
        if not args.exact:
            raise UsageError("bench needs one of --gt, --dataset, or --exact")
        truth = evaluation.ground_truth_ids(Q, indices[0].full_store, cfg["k"])
    truth_sets = [set(map(int, row)) for row in truth]

    # datapoints each index scans to reach each target; gains are over the last `none` index
    curves = [evaluation.kmr_curve(Q, idx, cfg["k"], truth=truth) for idx in indices]
    costs = np.array([[evaluation.datapoints_to_recall(cv, t) for t in _TARGETS] for cv in curves])
    none_costs = [cost for idx, cost in zip(indices, costs) if idx.policy == "none"]
    sweep_rows = []
    target_rows = []
    for idx, cost, sweep in zip(indices, costs, sweeps):
        gains = _fixed(none_costs[-1] / cost, 4) if none_costs else [""] * len(_TARGETS)
        for target, dp, gain in zip(_TARGETS, cost, gains):
            target_rows.append([idx.policy, _format_value(idx.lam), target, f"{dp:.2f}", gain])
        for params in sweep:
            hits = 0
            scanned = 0
            started = time.perf_counter_ns()
            for qi in range(Q.n):
                result = index_mod.search(idx, Q.data[qi], params)
                scanned += result.datapoints_scanned
                hits += len({nb.id for nb in result.neighbors} & truth_sets[qi])
            elapsed_ms = (time.perf_counter_ns() - started) / 1e6
            sweep_rows.append(
                [
                    idx.policy,
                    _format_value(idx.lam),
                    params.probes,
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
    cfg = _config(args)
    cfg["index"] = str(args.index)
    cfg["queries"] = str(args.queries)
    if cfg["summary_out"] is None:
        cfg["summary_out"] = str(Path(cfg["out"]).with_suffix(".summary.csv"))
    [idx], Q = _load_indices([args.index], args.queries)
    truth = _ground_truth(args, cfg["k"], Q)  # None: exact truth, computed here
    result = evaluation.diagnostics(Q, idx, cfg["k"], truth=truth)
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
    cfg = _config(args)
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
            (report,) = evaluation.mc_verify_theorem1(r, cands, [lam], cfg["samples"], seed=seeds[i])
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


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and the subcommand parsers by name; a required option defaults to _REQUIRED."""
    parser = argparse.ArgumentParser(prog="soar", description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    subs = parser.add_subparsers(dest="command")
    # a flag matches only its full name, never a prefix of it
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    p = add_parser("synth", help="generate a Gaussian-mixture fvecs dataset")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--clusters", type=int, default=10)
    p.add_argument("--sigma", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", type=_out_path, default=_REQUIRED)
    p.set_defaults(func=cmd_synth)

    p = add_parser("build", help="build a .soar index from an fvecs dataset")
    p.add_argument("dataset")
    p.add_argument("--out", type=_out_path, default=_REQUIRED)
    p.add_argument("--c", type=int, help="partitions; default is n / 400, at least 2 under a spill")
    p.add_argument("--policy", choices=index_mod.POLICIES, default="soar")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--s", type=int, default=2, help="dimensions per quantizer subspace")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=25)
    p.set_defaults(func=cmd_build)

    p = add_parser("search", help="run queries against an index, emit result rows")
    p.add_argument("index")
    p.add_argument("queries")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--probes", type=int)
    p.add_argument("--rerank", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--out", type=_out_path)
    p.set_defaults(func=cmd_search)

    p = add_parser("bench", help="probe sweep and scan-cost targets across indices")
    p.add_argument("--index", nargs="+", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--gt", help="ivecs ground truth")
    p.add_argument("--dataset", help="fvecs dataset; ground truth is cached beside it")
    p.add_argument("--exact", action="store_true", help="brute-force ground truth in memory")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--probes", type=_int_list, default=[1, 2, 4, 8, 16, 32, 64])
    p.add_argument("--rerank", type=int)
    p.add_argument("--out", type=_out_path, default=_REQUIRED)
    p.add_argument("--targets-out", dest="targets_out", type=_out_path)
    p.set_defaults(func=cmd_bench)

    p = add_parser("diagnose", help="per-neighbor residual angle and rank records")
    p.add_argument("index")
    p.add_argument("queries")
    p.add_argument("--gt", help="ivecs ground truth")
    p.add_argument("--dataset", help="fvecs dataset; ground truth is cached beside it")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", type=_out_path, default=_REQUIRED)
    p.add_argument("--summary-out", dest="summary_out", type=_out_path)
    p.set_defaults(func=cmd_diagnose)

    p = add_parser("verify", help="Monte Carlo checks of the spill objective")
    p.add_argument("--d", type=int, default=32)
    p.add_argument("--lambdas", type=_lambda_list, default=[0.0, 1.0, 2.0])
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--theorem-tol", dest="theorem_tol", type=float, default=0.02)
    p.add_argument("--lemma-tol", dest="lemma_tol", type=float, default=0.005)
    p.add_argument("--out", type=_out_path)
    p.set_defaults(func=cmd_verify)

    for p in subs.choices.values():
        p.add_argument("--config", help="key=value file; explicit flags override it")
    return parser, subs.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.config:
            # the file's values go right after the command name, so explicit flags win
            at = argv.index(args.command) + 1
            argv[at:at] = _config_argv(commands[args.command], args.command, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from argparse: --help, or a bad flag or config value
        return 0 if exc.code == 0 else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # includes DataFormatError and IndexFormatError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
